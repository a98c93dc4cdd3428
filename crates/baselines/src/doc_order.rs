//! Document-level ordering ablation (Tatarinov et al. \[19\]).
//!
//! The hybrid catalog's ordering lives at **schema** level: appending a
//! new attribute instance to an object touches one row (its same-sibling
//! sequence). Under *document-level global ordering* every node of
//! every document carries a dense pre-order number, so inserting an
//! attribute in the middle of a document renumbers every subsequent
//! node — the update cost the paper avoids (§6). E7 measures both sides
//! with this module.

use catalog::error::Result;
use minidb::{ArithOp, CmpOp, Column, DataType, Database, Expr, Plan, TableSchema, Value};
use std::sync::atomic::{AtomicI64, Ordering};
use xmlkit::dom::{Document, NodeKind};

/// A store that maintains a dense per-document global ordering, the way
/// \[19\]'s "global ordering" scheme does.
pub struct DocOrderStore {
    db: Database,
    next_obj: AtomicI64,
}

// nodes columns: object_id=0 pos=1 depth=2 tag=3 value=4

impl DocOrderStore {
    /// New empty store.
    pub fn new() -> Result<DocOrderStore> {
        let db = Database::new();
        db.create_table(
            "nodes",
            TableSchema::new(vec![
                Column::new("object_id", DataType::Int),
                Column::new("pos", DataType::Int),
                Column::new("depth", DataType::Int),
                Column::new("tag", DataType::Text),
                Column::nullable("value", DataType::Text),
            ]),
        )?;
        db.create_index("nodes", "nodes_by_obj", &["object_id", "pos"], true)?;
        Ok(DocOrderStore { db, next_obj: AtomicI64::new(1) })
    }

    /// Number of node rows stored.
    pub fn node_count(&self) -> usize {
        self.db.row_count("nodes").unwrap_or(0)
    }

    /// Ingest a document, numbering every element node pre-order.
    pub fn ingest(&self, xml: &str) -> Result<i64> {
        let doc = Document::parse(xml)?;
        let object = self.next_obj.fetch_add(1, Ordering::Relaxed);
        let mut rows = Vec::with_capacity(doc.len());
        let mut pos = 0i64;
        let mut stack = vec![(doc.root(), 0i64)];
        while let Some((node, depth)) = stack.pop() {
            if let NodeKind::Element { name, .. } = &doc.node(node).kind {
                pos += 1;
                let text = doc.direct_text(node);
                rows.push(vec![
                    Value::Int(object),
                    Value::Int(pos),
                    Value::Int(depth),
                    Value::Str(name.clone()),
                    if text.is_empty() { Value::Null } else { Value::Str(text) },
                ]);
                for c in doc.node(node).children.iter().rev() {
                    stack.push((*c, depth + 1));
                }
            }
        }
        self.db.insert("nodes", rows)?;
        Ok(object)
    }

    /// Insert a subtree at position `at` of `object`: every node at or
    /// after `at` must be renumbered — the per-document maintenance cost
    /// of \[19\]'s global ordering. Returns how many rows were shifted.
    pub fn insert_subtree(
        &self,
        object: i64,
        at: i64,
        fragment: &str,
        depth: i64,
    ) -> Result<usize> {
        let frag = Document::parse(fragment)?;
        // Count fragment elements to compute the shift width.
        let frag_len = frag.descendants(frag.root()).count() as i64;

        // The fragment's rows, numbered into the gap.
        let mut rows = Vec::new();
        let mut pos = at - 1;
        let mut stack = vec![(frag.root(), depth)];
        while let Some((node, d)) = stack.pop() {
            if let NodeKind::Element { name, .. } = &frag.node(node).kind {
                pos += 1;
                let text = frag.direct_text(node);
                rows.push(vec![
                    Value::Int(object),
                    Value::Int(pos),
                    Value::Int(d),
                    Value::Str(name.clone()),
                    if text.is_empty() { Value::Null } else { Value::Str(text) },
                ]);
                for c in frag.node(node).children.iter().rev() {
                    stack.push((*c, d + 1));
                }
            }
        }

        // Renumber the tail (the expensive part) and insert the fragment
        // in one transaction.
        let mut txn = self.db.txn();
        let shifted = txn.update_where(
            "nodes",
            Some(&Expr::and(
                Expr::col_eq(0, object),
                Expr::Cmp(CmpOp::Ge, Box::new(Expr::col(1)), Box::new(Expr::lit(at))),
            )),
            &[(
                1,
                Expr::Arith(ArithOp::Add, Box::new(Expr::col(1)), Box::new(Expr::lit(frag_len))),
            )],
        )?;
        txn.insert("nodes", rows)?;
        txn.commit()?;
        Ok(shifted)
    }

    /// Reconstruct a document from the ordered node rows (depth-based
    /// closing, the standard technique over a global ordering).
    pub fn reconstruct(&self, object: i64) -> Result<String> {
        let rs = self.db.execute(&Plan::Sort {
            input: Box::new(Plan::Scan {
                table: "nodes".into(),
                filter: Some(Expr::col_eq(0, object)),
            }),
            keys: vec![(1, false)],
        })?;
        let mut out = String::new();
        let mut stack: Vec<(i64, String)> = Vec::new();
        for row in &rs.rows {
            let depth = row[2].as_i64().unwrap_or(0);
            let tag = row[3].as_str().unwrap_or("").to_string();
            while let Some((d, _)) = stack.last() {
                if *d >= depth {
                    let (_, t) = stack.pop().expect("non-empty");
                    out.push_str(&format!("</{t}>"));
                } else {
                    break;
                }
            }
            out.push_str(&format!("<{tag}>"));
            if let Some(v) = row[4].as_str() {
                let mut esc = String::new();
                xmlkit::writer::escape_text(v, &mut esc);
                out.push_str(&esc);
            }
            stack.push((depth, tag));
        }
        while let Some((_, t)) = stack.pop() {
            out.push_str(&format!("</{t}>"));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = "<r><a><x>1</x></a><b>2</b><c/></r>";

    #[test]
    fn ingest_numbers_preorder() {
        let s = DocOrderStore::new().unwrap();
        let id = s.ingest(DOC).unwrap();
        assert_eq!(s.node_count(), 5);
        let rebuilt = s.reconstruct(id).unwrap();
        let a = Document::parse(DOC).unwrap();
        let b = Document::parse(&rebuilt).unwrap();
        assert_eq!(
            xmlkit::writer::to_string(&a, a.root()),
            xmlkit::writer::to_string(&b, b.root())
        );
    }

    #[test]
    fn mid_document_insert_shifts_tail() {
        let s = DocOrderStore::new().unwrap();
        let id = s.ingest(DOC).unwrap();
        // Insert <n>9</n> before <b> (which is at pos 4: r=1 a=2 x=3 b=4).
        let shifted = s.insert_subtree(id, 4, "<n>9</n>", 1).unwrap();
        assert_eq!(shifted, 2); // b (pos 4) and c (pos 5) renumber
        let rebuilt = s.reconstruct(id).unwrap();
        assert_eq!(rebuilt, "<r><a><x>1</x></a><n>9</n><b>2</b><c></c></r>");
    }

    #[test]
    fn append_at_end_shifts_nothing() {
        let s = DocOrderStore::new().unwrap();
        let id = s.ingest(DOC).unwrap();
        let last = s.node_count() as i64;
        let shifted = s.insert_subtree(id, last + 1, "<z/>", 1).unwrap();
        assert_eq!(shifted, 0);
    }
}
