//! SQL front end: lexer → parser → planner → executor.
//!
//! The hot paths of the catalog drive the engine with explicit
//! [`crate::exec::Plan`]s; this SQL layer exists for ad-hoc inspection,
//! tests, and the example binaries — and to demonstrate the substrate
//! behaves like the RDBMS the paper assumes.

pub mod ast;
pub mod lexer;
pub mod parser;
pub mod planner;

pub use parser::parse;

use crate::db::Database;
use crate::error::Result;
use crate::exec::ResultSet;

impl Database {
    /// Parse and execute one SQL statement.
    pub fn execute_sql(&self, sql: &str) -> Result<ResultSet> {
        let stmt = parse(sql)?;
        planner::execute_stmt(self, &stmt)
    }
}

#[cfg(test)]
mod tests {
    use crate::db::Database;
    use crate::value::Value;

    fn setup() -> Database {
        let db = Database::new();
        db.execute_sql("CREATE TABLE emp (id INT NOT NULL, dept TEXT, salary INT)")
            .unwrap();
        db.execute_sql("CREATE TABLE dept (name TEXT, building TEXT)").unwrap();
        db.execute_sql(
            "INSERT INTO emp VALUES (1, 'eng', 100), (2, 'eng', 120), (3, 'ops', 90), (4, 'hr', 80)",
        )
        .unwrap();
        db.execute_sql("INSERT INTO dept VALUES ('eng', 'B1'), ('ops', 'B2')").unwrap();
        db
    }

    #[test]
    fn end_to_end_select() {
        let db = setup();
        let rs = db
            .execute_sql("SELECT id, salary FROM emp WHERE dept = 'eng' ORDER BY salary DESC")
            .unwrap();
        assert_eq!(rs.columns, vec!["id", "salary"]);
        assert_eq!(rs.rows[0][1], Value::Int(120));
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn join_and_group() {
        let db = setup();
        let rs = db
            .execute_sql(
                "SELECT d.building, COUNT(*) AS n, SUM(e.salary) AS total \
                 FROM emp e JOIN dept d ON e.dept = d.name \
                 GROUP BY d.building ORDER BY n DESC",
            )
            .unwrap();
        assert_eq!(rs.rows.len(), 2);
        assert_eq!(rs.rows[0][0], Value::Str("B1".into()));
        assert_eq!(rs.rows[0][1], Value::Int(2));
        assert_eq!(rs.rows[0][2], Value::Int(220));
    }

    #[test]
    fn left_join_sql() {
        let db = setup();
        let rs = db
            .execute_sql(
                "SELECT e.id, d.building FROM emp e LEFT JOIN dept d ON e.dept = d.name ORDER BY id",
            )
            .unwrap();
        assert_eq!(rs.rows.len(), 4);
        assert!(rs.rows[3][1].is_null()); // hr has no dept row
    }

    #[test]
    fn having_filters_groups() {
        let db = setup();
        let rs = db
            .execute_sql("SELECT dept, COUNT(*) AS n FROM emp GROUP BY dept HAVING COUNT(*) > 1")
            .unwrap();
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][0], Value::Str("eng".into()));
    }

    #[test]
    fn global_aggregate_no_group() {
        let db = setup();
        let rs = db.execute_sql("SELECT COUNT(*), MIN(salary), AVG(salary) FROM emp").unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(4));
        assert_eq!(rs.rows[0][1], Value::Int(80));
        assert_eq!(rs.rows[0][2], Value::Float(97.5));
    }

    #[test]
    fn distinct_and_limit() {
        let db = setup();
        let rs = db.execute_sql("SELECT DISTINCT dept FROM emp ORDER BY dept LIMIT 2").unwrap();
        assert_eq!(rs.rows.len(), 2);
        assert_eq!(rs.rows[0][0], Value::Str("eng".into()));
    }

    #[test]
    fn delete_and_insert_with_columns() {
        let db = setup();
        let rs = db.execute_sql("DELETE FROM emp WHERE dept = 'eng'").unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(2));
        db.execute_sql("INSERT INTO emp (salary, id, dept) VALUES (55, 9, 'new')")
            .unwrap();
        let rs = db.execute_sql("SELECT * FROM emp WHERE id = 9").unwrap();
        assert_eq!(rs.rows[0][2], Value::Int(55));
    }

    #[test]
    fn index_through_sql() {
        let db = setup();
        db.execute_sql("CREATE UNIQUE INDEX pk_emp ON emp (id)").unwrap();
        assert!(db.execute_sql("INSERT INTO emp VALUES (1, 'dup', 0)").is_err());
        let rs = db.execute_sql("SELECT dept FROM emp WHERE id = 3").unwrap();
        assert_eq!(rs.rows[0][0], Value::Str("ops".into()));
    }

    #[test]
    fn where_special_predicates() {
        let db = setup();
        let rs = db
            .execute_sql("SELECT id FROM emp WHERE salary BETWEEN 85 AND 105 AND dept LIKE '%g' OR dept IN ('hr')")
            .unwrap();
        // salary in [85,105] AND dept like %g -> id 1; OR hr -> id 4
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn arithmetic_projection() {
        let db = setup();
        let rs = db
            .execute_sql("SELECT id, salary * 2 + 1 AS double FROM emp WHERE id = 1")
            .unwrap();
        assert_eq!(rs.rows[0][1], Value::Int(201));
    }

    #[test]
    fn order_by_position() {
        let db = setup();
        let rs = db.execute_sql("SELECT id, salary FROM emp ORDER BY 2 DESC LIMIT 1").unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(2));
    }

    #[test]
    fn errors_surface() {
        let db = setup();
        assert!(db.execute_sql("SELECT nope FROM emp").is_err());
        assert!(db.execute_sql("SELECT * FROM missing").is_err());
        assert!(db.execute_sql("SELECT dept, COUNT(*) FROM emp").is_err()); // dept not grouped
        assert!(db.execute_sql("SELECT id FROM emp ORDER BY salary").is_err()); // not projected
    }

    #[test]
    fn count_distinct_sql() {
        let db = setup();
        let rs = db.execute_sql("SELECT COUNT(DISTINCT dept) FROM emp").unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(3));
    }
}

#[cfg(test)]
mod update_tests {
    use crate::db::Database;
    use crate::value::Value;

    fn setup() -> Database {
        let db = Database::new();
        db.execute_sql("CREATE TABLE emp (id INT, dept TEXT, salary INT)").unwrap();
        db.execute_sql("INSERT INTO emp VALUES (1, 'eng', 100), (2, 'eng', 120), (3, 'ops', 90)")
            .unwrap();
        db
    }

    #[test]
    fn update_with_where() {
        let db = setup();
        let rs = db
            .execute_sql("UPDATE emp SET salary = salary + 10 WHERE dept = 'eng'")
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(2));
        let rs = db.execute_sql("SELECT SUM(salary) FROM emp").unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(100 + 120 + 20 + 90));
    }

    #[test]
    fn update_all_rows_multiple_sets() {
        let db = setup();
        db.execute_sql("UPDATE emp SET dept = 'all', salary = 0").unwrap();
        let rs = db
            .execute_sql("SELECT COUNT(*) FROM emp WHERE dept = 'all' AND salary = 0")
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(3));
    }

    #[test]
    fn update_maintains_indexes() {
        let db = setup();
        db.execute_sql("CREATE INDEX by_dept ON emp (dept)").unwrap();
        db.execute_sql("UPDATE emp SET dept = 'moved' WHERE id = 1").unwrap();
        let rs = db.execute_sql("SELECT id FROM emp WHERE dept = 'moved'").unwrap();
        assert_eq!(rs.rows.len(), 1);
        let rs = db.execute_sql("SELECT id FROM emp WHERE dept = 'eng'").unwrap();
        assert_eq!(rs.rows.len(), 1);
    }

    #[test]
    fn update_respects_schema_and_unique() {
        let db = setup();
        assert!(db.execute_sql("UPDATE emp SET salary = 'nope'").is_err());
        db.execute_sql("CREATE UNIQUE INDEX pk ON emp (id)").unwrap();
        assert!(db.execute_sql("UPDATE emp SET id = 1 WHERE id = 2").is_err());
        // Failed update rolled back: id=2 still present.
        let rs = db.execute_sql("SELECT COUNT(*) FROM emp WHERE id = 2").unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(1));
    }

    #[test]
    fn unique_keys_are_checked_after_the_whole_update() {
        let db = setup();
        db.execute_sql("CREATE UNIQUE INDEX pk ON emp (id)").unwrap();
        // Row by row, 1 -> 2 would collide with the row still holding 2.
        let rs = db.execute_sql("UPDATE emp SET id = id + 1").unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(3));
        let rs = db.execute_sql("SELECT SUM(id) FROM emp").unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(2 + 3 + 4));
        // A violating update changes no row, not even the first.
        assert!(db.execute_sql("UPDATE emp SET id = 9").is_err());
        let rs = db.execute_sql("SELECT SUM(id) FROM emp").unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(2 + 3 + 4));
    }

    #[test]
    fn update_errors() {
        let db = setup();
        assert!(db.execute_sql("UPDATE missing SET x = 1").is_err());
        assert!(db.execute_sql("UPDATE emp SET nope = 1").is_err());
        assert!(db.execute_sql("UPDATE emp SET").is_err());
    }
}
