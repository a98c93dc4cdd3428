//! Heap tables with secondary indexes.
//!
//! A [`Table`] is an append-only row vector with tombstone deletion and
//! any number of secondary [`Index`]es (B-tree ordered, supporting
//! point and range lookups). Index maintenance happens inside
//! `insert`/`delete`, so readers can always trust them.

use crate::error::{DbError, Result};
use crate::value::{DataType, Value};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// A row is a boxed slice of values, one per column.
pub type Row = Vec<Value>;

/// Stable identifier of a row within its table (slot index).
pub type RowId = usize;

/// One column declaration.
#[derive(Debug, Clone)]
pub struct Column {
    /// Column name (unique within the table).
    pub name: String,
    /// Declared type, checked on insert.
    pub dtype: DataType,
    /// Whether NULL is allowed.
    pub nullable: bool,
}

impl Column {
    /// Non-nullable column.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Column {
        Column { name: name.into(), dtype, nullable: false }
    }

    /// Nullable column.
    pub fn nullable(name: impl Into<String>, dtype: DataType) -> Column {
        Column { name: name.into(), dtype, nullable: true }
    }
}

/// Ordered column list of a table or derived result.
#[derive(Debug, Clone, Default)]
pub struct TableSchema {
    /// Columns in declaration order.
    pub columns: Vec<Column>,
}

impl TableSchema {
    /// Build from a column list.
    pub fn new(columns: Vec<Column>) -> TableSchema {
        TableSchema { columns }
    }

    /// Index of the column named `name`.
    pub fn col(&self, name: &str) -> Result<usize> {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .ok_or_else(|| DbError::NoSuchColumn(name.to_string()))
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Validate a row against declared types and nullability.
    pub fn check(&self, row: &Row) -> Result<()> {
        if row.len() != self.columns.len() {
            return Err(DbError::SchemaMismatch(format!(
                "expected {} values, got {}",
                self.columns.len(),
                row.len()
            )));
        }
        for (v, c) in row.iter().zip(&self.columns) {
            if v.is_null() {
                if !c.nullable {
                    return Err(DbError::SchemaMismatch(format!("column {} is NOT NULL", c.name)));
                }
            } else if !c.dtype.admits(v) {
                return Err(DbError::SchemaMismatch(format!(
                    "column {} ({}) cannot hold {v:?}",
                    c.name,
                    c.dtype.keyword()
                )));
            }
        }
        Ok(())
    }
}

/// A secondary B-tree index over one or more columns.
#[derive(Debug, Clone)]
pub struct Index {
    /// Index name (unique within the table).
    pub name: String,
    /// Indexed column positions, in key order.
    pub columns: Vec<usize>,
    /// Reject duplicate keys when true.
    pub unique: bool,
    map: BTreeMap<Vec<Value>, Vec<RowId>>,
}

impl Index {
    fn key_of(&self, row: &Row) -> Vec<Value> {
        self.columns.iter().map(|&c| row[c].clone()).collect()
    }

    /// Row ids with exactly this key.
    pub fn get(&self, key: &[Value]) -> &[RowId] {
        self.map.get(key).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Row ids whose key is within `[lo, hi]` (inclusive bounds; pass
    /// `None` for an open end). Keys compare lexicographically with the
    /// engine's total value order.
    pub fn range(&self, lo: Option<&[Value]>, hi: Option<&[Value]>) -> Vec<RowId> {
        self.range_ids(lo, hi).collect()
    }

    /// Iterator form of [`Index::range`]: yields the same row ids
    /// without materializing an intermediate vector, so executors can
    /// stream straight from the B-tree.
    pub fn range_ids(
        &self,
        lo: Option<&[Value]>,
        hi: Option<&[Value]>,
    ) -> impl Iterator<Item = RowId> + '_ {
        use std::ops::Bound::*;
        let lo_b = match lo {
            Some(k) => Included(k.to_vec()),
            None => Unbounded,
        };
        let hi_b = match hi {
            Some(k) => Included(k.to_vec()),
            None => Unbounded,
        };
        self.map.range((lo_b, hi_b)).flat_map(|(_, ids)| ids.iter().copied())
    }

    /// Row ids whose key begins with `prefix` (useful for composite
    /// indexes queried on a leading subset of columns).
    pub fn prefix(&self, prefix: &[Value]) -> Vec<RowId> {
        self.prefix_ids(prefix).collect()
    }

    /// Iterator form of [`Index::prefix`]: yields the same row ids
    /// without materializing an intermediate vector.
    pub fn prefix_ids(&self, prefix: &[Value]) -> impl Iterator<Item = RowId> + '_ {
        let prefix: Vec<Value> = prefix.to_vec();
        self.map
            .range(prefix.clone()..)
            .take_while(move |(k, _)| k.len() >= prefix.len() && k[..prefix.len()] == *prefix)
            .flat_map(|(_, ids)| ids.iter().copied())
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.map.len()
    }
}

/// A heap table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table name.
    pub name: String,
    /// Column declarations.
    pub schema: TableSchema,
    rows: Vec<Option<Row>>,
    live: usize,
    indexes: Vec<Index>,
}

impl Table {
    /// Create an empty table.
    pub fn new(name: impl Into<String>, schema: TableSchema) -> Table {
        Table { name: name.into(), schema, rows: Vec::new(), live: 0, indexes: Vec::new() }
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when the table holds no live rows.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total slots including tombstones (upper bound for RowIds).
    pub fn slot_count(&self) -> usize {
        self.rows.len()
    }

    /// Add a secondary index named `name` over `columns`; existing rows
    /// are indexed immediately.
    pub fn create_index(
        &mut self,
        name: impl Into<String>,
        columns: Vec<usize>,
        unique: bool,
    ) -> Result<()> {
        let name = name.into();
        if self.indexes.iter().any(|i| i.name == name) {
            return Err(DbError::TableExists(format!("index {name}")));
        }
        for &c in &columns {
            if c >= self.schema.arity() {
                return Err(DbError::Plan(format!("index column #{c} out of range")));
            }
        }
        let mut idx = Index { name, columns, unique, map: BTreeMap::new() };
        for (rid, slot) in self.rows.iter().enumerate() {
            if let Some(row) = slot {
                let key = idx.key_of(row);
                let ids = idx.map.entry(key).or_default();
                if unique && !ids.is_empty() {
                    return Err(DbError::Duplicate(format!("building unique index {}", idx.name)));
                }
                ids.push(rid);
            }
        }
        self.indexes.push(idx);
        Ok(())
    }

    /// Find an index by name.
    pub fn index(&self, name: &str) -> Result<&Index> {
        self.indexes
            .iter()
            .find(|i| i.name == name)
            .ok_or_else(|| DbError::NoSuchIndex(name.to_string()))
    }

    /// Find an index whose key columns start with `cols` (exact order).
    pub fn index_covering(&self, cols: &[usize]) -> Option<&Index> {
        self.indexes
            .iter()
            .find(|i| i.columns.len() >= cols.len() && i.columns[..cols.len()] == *cols)
    }

    /// All indexes.
    pub fn indexes(&self) -> &[Index] {
        &self.indexes
    }

    /// Insert one row; returns its RowId.
    pub fn insert(&mut self, row: Row) -> Result<RowId> {
        self.schema.check(&row)?;
        let rid = self.rows.len();
        // Check unique constraints before any mutation.
        for idx in &self.indexes {
            if idx.unique {
                let key = idx.key_of(&row);
                if !idx.get(&key).is_empty() {
                    return Err(DbError::Duplicate(format!(
                        "index {} on table {}",
                        idx.name, self.name
                    )));
                }
            }
        }
        for idx in &mut self.indexes {
            let key = idx.key_of(&row);
            idx.map.entry(key).or_default().push(rid);
        }
        self.rows.push(Some(row));
        self.live += 1;
        Ok(rid)
    }

    /// Insert many rows; all-or-nothing per row (earlier rows stay).
    pub fn insert_many(&mut self, rows: impl IntoIterator<Item = Row>) -> Result<usize> {
        let mut n = 0;
        for r in rows {
            self.insert(r)?;
            n += 1;
        }
        Ok(n)
    }

    /// Borrow a row by id (None for tombstones/out of range).
    pub fn get(&self, rid: RowId) -> Option<&Row> {
        self.rows.get(rid).and_then(|s| s.as_ref())
    }

    /// Delete a row by id; returns true if it was live.
    pub fn delete(&mut self, rid: RowId) -> bool {
        self.remove(rid).is_some()
    }

    /// Take a live row out of its slot and every index.
    fn remove(&mut self, rid: RowId) -> Option<Row> {
        let row = self.rows.get_mut(rid)?.take()?;
        self.live -= 1;
        for idx in &mut self.indexes {
            let key = idx.key_of(&row);
            if let Entry::Occupied(mut ids) = idx.map.entry(key) {
                ids.get_mut().retain(|&r| r != rid);
                if ids.get().is_empty() {
                    ids.remove();
                }
            }
        }
        Some(row)
    }

    /// Put `row` into the empty slot `rid` and every index.
    fn place(&mut self, rid: RowId, row: Row) {
        for idx in &mut self.indexes {
            let key = idx.key_of(&row);
            idx.map.entry(key).or_default().push(rid);
        }
        self.rows[rid] = Some(row);
        self.live += 1;
    }

    /// Delete every row matching `pred`; returns the count removed.
    pub fn delete_where(&mut self, mut pred: impl FnMut(&Row) -> bool) -> usize {
        let victims: Vec<RowId> = self
            .rows
            .iter()
            .enumerate()
            .filter_map(|(rid, s)| s.as_ref().filter(|r| pred(r)).map(|_| rid))
            .collect();
        for rid in &victims {
            self.delete(*rid);
        }
        victims.len()
    }

    /// Replace live rows in place: RowIds stay stable and index entries
    /// are refreshed. Unique indexes are checked against the state after
    /// the whole batch, so shifting a key range (`pos = pos + 1`) never
    /// collides with a row that is itself about to move. On a schema or
    /// constraint violation no row changes.
    pub fn update_rows(&mut self, updates: Vec<(RowId, Row)>) -> Result<usize> {
        for (_, row) in &updates {
            self.schema.check(row)?;
        }
        // With the old rows out of the indexes, each unique check sees
        // the rows the batch leaves alone plus the new rows placed so far.
        let old: Vec<(RowId, Row)> = updates
            .iter()
            .filter_map(|&(rid, _)| self.remove(rid).map(|row| (rid, row)))
            .collect();
        let mut placed = Vec::with_capacity(updates.len());
        for (rid, row) in updates {
            if let Some(idx) = self
                .indexes
                .iter()
                .find(|idx| idx.unique && !idx.get(&idx.key_of(&row)).is_empty())
            {
                let err = DbError::Duplicate(format!("index {} on update", idx.name));
                for rid in placed {
                    self.remove(rid);
                }
                for (rid, row) in old {
                    self.place(rid, row);
                }
                return Err(err);
            }
            self.place(rid, row);
            placed.push(rid);
        }
        Ok(placed.len())
    }

    /// Iterate live rows as `(RowId, &Row)`.
    pub fn scan(&self) -> impl Iterator<Item = (RowId, &Row)> {
        self.rows.iter().enumerate().filter_map(|(rid, s)| s.as_ref().map(|r| (rid, r)))
    }

    /// Remove every row but keep schema and indexes.
    pub fn truncate(&mut self) {
        self.rows.clear();
        self.live = 0;
        for idx in &mut self.indexes {
            idx.map.clear();
        }
    }

    /// Rough memory footprint in bytes (rows only), for storage
    /// accounting in the evaluation.
    pub fn approx_bytes(&self) -> usize {
        let mut total = 0;
        for (_, row) in self.scan() {
            total += std::mem::size_of::<Value>() * row.len();
            for v in row {
                if let Value::Str(s) = v {
                    total += s.len();
                }
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn people() -> Table {
        let mut t = Table::new(
            "people",
            TableSchema::new(vec![
                Column::new("id", DataType::Int),
                Column::new("name", DataType::Text),
                Column::nullable("age", DataType::Int),
            ]),
        );
        t.insert(vec![1.into(), "ada".into(), 36.into()]).unwrap();
        t.insert(vec![2.into(), "bob".into(), Value::Null]).unwrap();
        t.insert(vec![3.into(), "cy".into(), 36.into()]).unwrap();
        t
    }

    #[test]
    fn insert_scan_len() {
        let t = people();
        assert_eq!(t.len(), 3);
        let names: Vec<_> = t.scan().map(|(_, r)| r[1].clone()).collect();
        assert_eq!(names, vec!["ada".into(), "bob".into(), "cy".into()] as Vec<Value>);
    }

    #[test]
    fn schema_enforced() {
        let mut t = people();
        assert!(matches!(
            t.insert(vec![4.into(), Value::Null, Value::Null]),
            Err(DbError::SchemaMismatch(_))
        ));
        assert!(matches!(t.insert(vec![4.into(), "d".into()]), Err(DbError::SchemaMismatch(_))));
        assert!(matches!(
            t.insert(vec!["x".into(), "d".into(), Value::Null]),
            Err(DbError::SchemaMismatch(_))
        ));
    }

    #[test]
    fn delete_and_tombstones() {
        let mut t = people();
        assert!(t.delete(1));
        assert!(!t.delete(1));
        assert_eq!(t.len(), 2);
        assert!(t.get(1).is_none());
        assert!(t.get(0).is_some());
        assert_eq!(t.delete_where(|r| r[2] == Value::Int(36)), 2);
        assert!(t.is_empty());
    }

    #[test]
    fn index_point_and_range() {
        let mut t = people();
        t.create_index("by_age", vec![2], false).unwrap();
        let idx = t.index("by_age").unwrap();
        assert_eq!(idx.get(&[36.into()]).len(), 2);
        assert_eq!(idx.get(&[99.into()]).len(), 0);
        let r = idx.range(Some(&[30.into()]), Some(&[40.into()]));
        assert_eq!(r.len(), 2);
        // The iterator variant yields the same ids in the same order.
        let streamed: Vec<_> = idx.range_ids(Some(&[30.into()]), Some(&[40.into()])).collect();
        assert_eq!(streamed, r);
    }

    #[test]
    fn index_maintained_on_delete_and_insert() {
        let mut t = people();
        t.create_index("by_age", vec![2], false).unwrap();
        t.delete(0);
        assert_eq!(t.index("by_age").unwrap().get(&[36.into()]).len(), 1);
        t.insert(vec![4.into(), "di".into(), 36.into()]).unwrap();
        assert_eq!(t.index("by_age").unwrap().get(&[36.into()]).len(), 2);
    }

    #[test]
    fn unique_index_rejects_duplicates() {
        let mut t = people();
        t.create_index("pk", vec![0], true).unwrap();
        assert!(matches!(
            t.insert(vec![1.into(), "dup".into(), Value::Null]),
            Err(DbError::Duplicate(_))
        ));
        assert_eq!(t.len(), 3);
        // and building one over duplicate data fails
        let mut t2 = people();
        assert!(t2.create_index("by_age_u", vec![2], true).is_err());
    }

    #[test]
    fn composite_index_prefix() {
        let mut t = Table::new(
            "t",
            TableSchema::new(vec![
                Column::new("a", DataType::Int),
                Column::new("b", DataType::Int),
            ]),
        );
        for a in 0..3i64 {
            for b in 0..4i64 {
                t.insert(vec![a.into(), b.into()]).unwrap();
            }
        }
        t.create_index("ab", vec![0, 1], false).unwrap();
        let idx = t.index("ab").unwrap();
        assert_eq!(idx.prefix(&[1.into()]).len(), 4);
        assert_eq!(idx.prefix_ids(&[1.into()]).count(), 4);
        assert_eq!(idx.get(&[1.into(), 2.into()]).len(), 1);
        assert!(t.index_covering(&[0]).is_some());
        assert!(t.index_covering(&[1]).is_none());
    }

    #[test]
    fn update_refreshes_indexes() {
        let mut t = people();
        t.create_index("by_age", vec![2], false).unwrap();
        let mut row = t.get(0).unwrap().clone();
        row[2] = 40.into();
        t.update_rows(vec![(0, row)]).unwrap();
        assert_eq!(t.index("by_age").unwrap().get(&[36.into()]).len(), 1);
        assert_eq!(t.index("by_age").unwrap().get(&[40.into()]).len(), 1);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn truncate_clears_rows_and_indexes() {
        let mut t = people();
        t.create_index("by_age", vec![2], false).unwrap();
        t.truncate();
        assert!(t.is_empty());
        assert_eq!(t.index("by_age").unwrap().distinct_keys(), 0);
        t.insert(vec![9.into(), "z".into(), 1.into()]).unwrap();
        assert_eq!(t.index("by_age").unwrap().get(&[1.into()]).len(), 1);
    }
}
