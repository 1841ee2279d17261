//! Report emission: the JSON value tree (shared with `qccd-bench`, so
//! every report and the `BENCH.json` snapshot use one encoding) and a CSV
//! row writer.

pub use qccd_bench::json::Json;

/// Renders one CSV row, quoting fields that need it.
pub fn csv_row(fields: &[String]) -> String {
    fields
        .iter()
        .map(|f| {
            if f.contains(',') || f.contains('"') || f.contains('\n') {
                format!("\"{}\"", f.replace('"', "\"\""))
            } else {
                f.clone()
            }
        })
        .collect::<Vec<_>>()
        .join(",")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_object() {
        let v = Json::obj(vec![
            ("name", Json::str("QFT")),
            ("shuttles", Json::int(42)),
            ("ratio", Json::Num(0.5)),
            ("rows", Json::Arr(vec![Json::int(1), Json::int(2)])),
        ]);
        let text = v.to_string();
        assert!(text.contains("\"name\": \"QFT\""));
        assert!(text.contains("\"shuttles\": 42"));
        assert!(text.contains("\"ratio\": 0.5"));
        assert!(text.starts_with('{') && text.ends_with('}'));
    }

    #[test]
    fn escapes_strings() {
        let v = Json::str("a\"b\\c\nd");
        assert_eq!(v.to_string(), r#""a\"b\\c\nd""#);
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn csv_quotes_when_needed() {
        assert_eq!(
            csv_row(&["a".into(), "b,c".into(), "d\"e".into()]),
            "a,\"b,c\",\"d\"\"e\""
        );
    }
}
