//! Character Large Object heap.
//!
//! Relational rows store CLOBs as integer *locators* (column type
//! [`crate::value::DataType::Clob`]); the bytes themselves live in this
//! append-only heap as [`Bytes`] handles. Fetching a CLOB clones a
//! reference-counted handle, never the text — which is what makes the
//! hybrid catalog's response building cheap: query plans join over
//! locators and only the final response assembly touches bytes (the
//! paper's point that "the join can utilize the index without accessing
//! the CLOBs until needed in the final join").

use crate::error::{DbError, Result};
use bytes::Bytes;

/// Locator of a CLOB within a [`ClobStore`].
pub type ClobId = u64;

/// Append-only CLOB heap. It has no lock of its own: the database keeps
/// it beside the tables under the commit-visibility gate.
#[derive(Debug, Default)]
pub struct ClobStore {
    slots: Vec<Bytes>,
}

impl ClobStore {
    /// Empty heap.
    pub fn new() -> ClobStore {
        ClobStore::default()
    }

    /// Store `data`, returning its locator.
    pub fn put(&mut self, data: impl Into<Bytes>) -> ClobId {
        self.slots.push(data.into());
        (self.slots.len() - 1) as ClobId
    }

    /// Fetch by locator (cheap handle clone).
    pub fn get(&self, id: ClobId) -> Result<Bytes> {
        self.slots.get(id as usize).cloned().ok_or(DbError::NoSuchClob(id))
    }

    /// Fetch as UTF-8 text.
    pub fn get_str(&self, id: ClobId) -> Result<String> {
        let b = self.get(id)?;
        String::from_utf8(b.to_vec()).map_err(|_| DbError::NoSuchClob(id))
    }

    /// Number of stored CLOBs.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no CLOBs are stored.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Total stored bytes, for storage accounting.
    pub fn total_bytes(&self) -> usize {
        self.slots.iter().map(|b| b.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        let mut s = ClobStore::new();
        let a = s.put("hello".as_bytes().to_vec());
        let b = s.put(Bytes::from_static(b"<x/>"));
        assert_eq!(s.get_str(a).unwrap(), "hello");
        assert_eq!(s.get(b).unwrap(), Bytes::from_static(b"<x/>"));
        assert_eq!(s.len(), 2);
        assert_eq!(s.total_bytes(), 9);
    }

    #[test]
    fn missing_locator() {
        let s = ClobStore::new();
        assert!(matches!(s.get(0), Err(DbError::NoSuchClob(0))));
    }

    #[test]
    fn handles_share_storage() {
        let mut s = ClobStore::new();
        let id = s.put(Bytes::from(vec![1u8; 1024]));
        let h1 = s.get(id).unwrap();
        let h2 = s.get(id).unwrap();
        assert_eq!(h1.as_ptr(), h2.as_ptr());
    }

    #[test]
    fn concurrent_puts() {
        let s = crate::db::Database::new();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let s = &s;
                scope.spawn(move || {
                    for i in 0..100 {
                        s.put_clob(format!("t{t}-{i}").into_bytes()).unwrap();
                    }
                });
            }
        });
        // 400 puts, 400 distinct locators 0..400.
        let rt = s.begin_read();
        assert!(rt.clob_str(399).is_ok());
        assert!(rt.clob_str(400).is_err());
    }
}
