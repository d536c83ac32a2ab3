//! A dependency-free parser for the TOML subset the descriptor corpus
//! uses.
//!
//! The workspace vendors no external crates (the build environment has no
//! registry access), so descriptor files are parsed by this hand-rolled
//! reader instead of the `toml` crate. It deliberately accepts only the
//! subset the corpus needs — and rejects everything else *loudly*, with a
//! line number, because a descriptor that silently drops a stanza would
//! desynchronize the substrates it is supposed to pin:
//!
//! - comments (`# ...`), blank lines,
//! - `[table]` headers and `[[array-of-tables]]` headers,
//! - `key = value` pairs with bare keys,
//! - values: basic strings (`"..."` with `\\ \" \n \t` escapes), booleans,
//!   integers (optional sign, `_` separators), floats (`.` or exponent),
//!   and single-line homogeneous arrays of those scalars.
//!
//! Not supported (rejected with an error naming the line): dotted keys,
//! inline tables, multi-line strings/arrays, literal strings, dates,
//! hex/octal/binary integers. The descriptor schema layer
//! ([`crate::descriptor`](mod@crate::descriptor)) then rejects unknown *keys* on top of this
//! syntactic strictness.

use std::fmt;

/// A scalar or array value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A basic string.
    Str(String),
    /// An integer.
    Int(i64),
    /// A float.
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// A single-line array of scalars.
    Array(Vec<Value>),
}

impl Value {
    /// A short name for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Bool(_) => "boolean",
            Value::Array(_) => "array",
        }
    }
}

/// One `key = value` entry with its source line.
#[derive(Debug, Clone)]
pub struct Entry {
    /// The bare key.
    pub key: String,
    /// 1-based source line of the entry.
    pub line: usize,
    /// The parsed value.
    pub value: Value,
}

/// An ordered list of entries (one `[table]` body or the root).
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Entries in file order.
    pub entries: Vec<Entry>,
    /// 1-based line of the table header (0 for the root table).
    pub line: usize,
}

impl Table {
    /// Looks up a key.
    pub fn get(&self, key: &str) -> Option<&Entry> {
        self.entries.iter().find(|e| e.key == key)
    }
}

/// A parsed document: the root table, named `[tables]`, and
/// `[[arrays-of-tables]]` in file order.
#[derive(Debug, Clone, Default)]
pub struct Document {
    /// Top-level `key = value` pairs before any header.
    pub root: Table,
    /// `[name]` tables, in file order.
    pub tables: Vec<(String, Table)>,
    /// `[[name]]` items, in file order (shared name ⇒ one logical array).
    pub arrays: Vec<(String, Table)>,
}

impl Document {
    /// The named `[table]`, if present.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.iter().find(|(n, _)| n == name).map(|(_, t)| t)
    }

    /// All `[[name]]` items, in file order.
    pub fn array(&self, name: &str) -> Vec<&Table> {
        self.arrays
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, t)| t)
            .collect()
    }
}

/// A parse or validation failure, pinned to a source location.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Descriptor name (file stem or path) for multi-file error output.
    pub source: String,
    /// 1-based line of the offending construct (0 = whole file).
    pub line: usize,
    /// The key or stanza at fault, when one is identifiable.
    pub field: Option<String>,
    /// What went wrong.
    pub message: String,
}

impl ParseError {
    /// Builds an error at `line`.
    pub fn at(line: usize, message: impl Into<String>) -> Self {
        Self {
            source: String::new(),
            line,
            field: None,
            message: message.into(),
        }
    }

    /// Attaches the offending field name.
    pub fn field(mut self, field: impl Into<String>) -> Self {
        self.field = Some(field.into());
        self
    }

    /// Attaches the descriptor name.
    pub fn in_source(mut self, source: impl Into<String>) -> Self {
        self.source = source.into();
        self
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}",
            if self.source.is_empty() {
                "<descriptor>"
            } else {
                &self.source
            }
        )?;
        if self.line > 0 {
            write!(f, ":{}", self.line)?;
        }
        if let Some(field) = &self.field {
            write!(f, " (field `{field}`)")?;
        }
        write!(f, ": {}", self.message)
    }
}

impl std::error::Error for ParseError {}

fn is_bare_key_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_' || c == '-'
}

/// Strips a trailing comment, respecting `"` strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        if in_str {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
            }
        } else if c == '"' {
            in_str = true;
        } else if c == '#' {
            return &line[..i];
        }
    }
    line
}

fn parse_string(s: &str, line: usize) -> Result<(Value, &str), ParseError> {
    debug_assert!(s.starts_with('"'));
    let mut out = String::new();
    let mut chars = s[1..].char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Ok((Value::Str(out), &s[1 + i + 1..])),
            '\\' => match chars.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, 'n')) => out.push('\n'),
                Some((_, 't')) => out.push('\t'),
                Some((_, other)) => {
                    return Err(ParseError::at(
                        line,
                        format!("unsupported string escape `\\{other}`"),
                    ))
                }
                None => return Err(ParseError::at(line, "string ends in a lone backslash")),
            },
            _ => out.push(c),
        }
    }
    Err(ParseError::at(line, "unterminated string"))
}

fn parse_number(tok: &str, line: usize) -> Result<Value, ParseError> {
    let cleaned: String = tok.chars().filter(|&c| c != '_').collect();
    if tok.starts_with('_')
        || tok.ends_with('_')
        || tok.contains("__")
        || tok.contains("_.")
        || tok.contains("._")
    {
        return Err(ParseError::at(
            line,
            format!("malformed underscore placement in number `{tok}`"),
        ));
    }
    let is_float = cleaned.contains('.') || cleaned.contains('e') || cleaned.contains('E');
    if is_float {
        cleaned
            .parse::<f64>()
            .map(Value::Float)
            .map_err(|_| ParseError::at(line, format!("invalid float `{tok}`")))
    } else {
        cleaned
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|_| ParseError::at(line, format!("invalid integer `{tok}`")))
    }
}

/// Parses one scalar/array value; returns the value and the unconsumed
/// remainder of the line.
fn parse_value(s: &str, line: usize) -> Result<(Value, &str), ParseError> {
    let s = s.trim_start();
    if s.is_empty() {
        return Err(ParseError::at(line, "missing value after `=`"));
    }
    if s.starts_with('"') {
        return parse_string(s, line);
    }
    if let Some(rest) = s.strip_prefix('[') {
        let mut items = Vec::new();
        let mut rest = rest.trim_start();
        if let Some(after) = rest.strip_prefix(']') {
            return Ok((Value::Array(items), after));
        }
        loop {
            let (v, r) = parse_value(rest, line)?;
            if matches!(v, Value::Array(_)) {
                return Err(ParseError::at(line, "nested arrays are not supported"));
            }
            items.push(v);
            rest = r.trim_start();
            if let Some(after) = rest.strip_prefix(',') {
                rest = after.trim_start();
                if let Some(after) = rest.strip_prefix(']') {
                    // trailing comma
                    return Ok((Value::Array(items), after));
                }
                continue;
            }
            if let Some(after) = rest.strip_prefix(']') {
                return Ok((Value::Array(items), after));
            }
            return Err(ParseError::at(
                line,
                "expected `,` or `]` in array (arrays must be single-line)",
            ));
        }
    }
    if s.starts_with('{') {
        return Err(ParseError::at(line, "inline tables are not supported"));
    }
    // Bare token: bool or number, ends at whitespace/`,`/`]`.
    let end = s
        .find(|c: char| c.is_whitespace() || c == ',' || c == ']')
        .unwrap_or(s.len());
    let (tok, rest) = s.split_at(end);
    let value = match tok {
        "true" => Value::Bool(true),
        "false" => Value::Bool(false),
        _ => parse_number(tok, line)?,
    };
    Ok((value, rest))
}

fn parse_header(trimmed: &str, line: usize) -> Result<(String, bool), ParseError> {
    let (inner, is_array) = if let Some(rest) = trimmed.strip_prefix("[[") {
        let inner = rest
            .strip_suffix("]]")
            .ok_or_else(|| ParseError::at(line, "malformed `[[...]]` header"))?;
        (inner, true)
    } else {
        let inner = trimmed
            .strip_prefix('[')
            .and_then(|r| r.strip_suffix(']'))
            .ok_or_else(|| ParseError::at(line, "malformed `[...]` header"))?;
        (inner, false)
    };
    let name = inner.trim();
    if name.is_empty() || !name.chars().all(is_bare_key_char) {
        return Err(ParseError::at(
            line,
            format!("unsupported table name `{name}` (bare names only, no dotted keys)"),
        ));
    }
    Ok((name.to_string(), is_array))
}

/// Parses a whole descriptor document.
pub fn parse(text: &str) -> Result<Document, ParseError> {
    let mut doc = Document::default();
    // Index into doc.tables/doc.arrays the current header points at;
    // None = root.
    enum Cursor {
        Root,
        Table(usize),
        Array(usize),
    }
    let mut cursor = Cursor::Root;
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        let stripped = strip_comment(raw);
        let trimmed = stripped.trim();
        if trimmed.is_empty() {
            continue;
        }
        if trimmed.starts_with('[') {
            let (name, is_array) = parse_header(trimmed, line)?;
            if is_array {
                doc.arrays.push((
                    name,
                    Table {
                        entries: Vec::new(),
                        line,
                    },
                ));
                cursor = Cursor::Array(doc.arrays.len() - 1);
            } else {
                if doc.tables.iter().any(|(n, _)| *n == name) {
                    return Err(
                        ParseError::at(line, format!("duplicate table `[{name}]`")).field(name)
                    );
                }
                doc.tables.push((
                    name,
                    Table {
                        entries: Vec::new(),
                        line,
                    },
                ));
                cursor = Cursor::Table(doc.tables.len() - 1);
            }
            continue;
        }
        let Some(eq) = trimmed.find('=') else {
            return Err(ParseError::at(
                line,
                format!("expected `key = value`, got `{trimmed}`"),
            ));
        };
        let key = trimmed[..eq].trim();
        if key.is_empty() || !key.chars().all(is_bare_key_char) {
            return Err(ParseError::at(
                line,
                format!("unsupported key `{key}` (bare keys only)"),
            ));
        }
        let (value, rest) = parse_value(&trimmed[eq + 1..], line)?;
        if !rest.trim().is_empty() {
            return Err(ParseError::at(
                line,
                format!("trailing garbage after value: `{}`", rest.trim()),
            )
            .field(key));
        }
        let table = match cursor {
            Cursor::Root => &mut doc.root,
            Cursor::Table(i) => &mut doc.tables[i].1,
            Cursor::Array(i) => &mut doc.arrays[i].1,
        };
        if table.entries.iter().any(|e| e.key == key) {
            return Err(ParseError::at(line, format!("duplicate key `{key}`")).field(key));
        }
        table.entries.push(Entry {
            key: key.to_string(),
            line,
            value,
        });
    }
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_tables_arrays_and_scalars() {
        let doc = parse(
            r#"
# a comment
top = 3

[case]
id = "c1"          # trailing comment
base_qps = 8_000.0
exempt = [2, 3]
flag = true

[[class]]
kind = "point_select"
weight = 0.65

[[class]]
kind = "backup"
weight = 0.0
"#,
        )
        .unwrap();
        assert_eq!(doc.root.get("top").unwrap().value, Value::Int(3));
        let case = doc.table("case").unwrap();
        assert_eq!(case.get("id").unwrap().value, Value::Str("c1".into()));
        assert_eq!(case.get("base_qps").unwrap().value, Value::Float(8000.0));
        assert_eq!(
            case.get("exempt").unwrap().value,
            Value::Array(vec![Value::Int(2), Value::Int(3)])
        );
        assert_eq!(case.get("flag").unwrap().value, Value::Bool(true));
        let classes = doc.array("class");
        assert_eq!(classes.len(), 2);
        assert_eq!(
            classes[1].get("kind").unwrap().value,
            Value::Str("backup".into())
        );
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse("a = 1\nb = }").unwrap_err();
        assert_eq!(err.line, 2);
        let err = parse("[t]\nx = 1\nx = 2").unwrap_err();
        assert_eq!(err.line, 3);
        assert_eq!(err.field.as_deref(), Some("x"));
        let err = parse("key only").unwrap_err();
        assert_eq!(err.line, 1);
    }

    #[test]
    fn rejects_unsupported_constructs() {
        assert!(parse("a.b = 1").unwrap_err().message.contains("bare keys"));
        assert!(parse("a = {x = 1}")
            .unwrap_err()
            .message
            .contains("inline tables"));
        assert!(parse("a = [[1]]").unwrap_err().message.contains("nested"));
        assert!(parse("[a.b]\n")
            .unwrap_err()
            .message
            .contains("no dotted keys"));
        assert!(parse("a = 1 2").unwrap_err().message.contains("trailing"));
        assert!(parse("a = \"unterminated")
            .unwrap_err()
            .message
            .contains("unterminated"));
        assert!(parse("a = 1__2")
            .unwrap_err()
            .message
            .contains("underscore"));
    }

    #[test]
    fn numbers_parse_exactly() {
        let doc = parse("a = 0.65\nb = 0.0003\nc = -4\nd = 2936012800\ne = 1e3").unwrap();
        assert_eq!(doc.root.get("a").unwrap().value, Value::Float(0.65));
        assert_eq!(doc.root.get("b").unwrap().value, Value::Float(0.0003));
        assert_eq!(doc.root.get("c").unwrap().value, Value::Int(-4));
        assert_eq!(doc.root.get("d").unwrap().value, Value::Int(2_936_012_800));
        assert_eq!(doc.root.get("e").unwrap().value, Value::Float(1000.0));
    }

    #[test]
    fn comment_inside_string_is_kept() {
        let doc = parse("a = \"has # hash\" # real comment").unwrap();
        assert_eq!(
            doc.root.get("a").unwrap().value,
            Value::Str("has # hash".into())
        );
    }
}
