//! A small JSON reader: enough to read back the result line a workload
//! process prints and `/BENCHMARK.json`.  Objects keep their key order.

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON value; `None` on malformed input or trailing text.
    pub fn parse(text: &str) -> Option<Self> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        let value = parser.value()?;
        parser.skip_space();
        (parser.at == parser.bytes.len()).then_some(value)
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object()?
            .iter()
            .find_map(|(k, v)| (k == key).then_some(v))
    }

    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Self::Object(entries) => Some(entries),
            _ => None,
        }
    }

    #[cfg(test)]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Self::Array(items) => Some(items),
            _ => None,
        }
    }

    #[cfg(test)]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Self::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Self::Number(n) => Some(*n),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_space(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, literal: &str) -> Option<()> {
        self.bytes[self.at..]
            .starts_with(literal.as_bytes())
            .then(|| self.at += literal.len())
    }

    fn value(&mut self) -> Option<Json> {
        self.skip_space();
        match *self.bytes.get(self.at)? {
            b'n' => self.eat("null").map(|()| Json::Null),
            b't' => self.eat("true").map(|()| Json::Bool(true)),
            b'f' => self.eat("false").map(|()| Json::Bool(false)),
            b'"' => self.string().map(Json::String),
            b'[' => {
                self.at += 1;
                let mut items = Vec::new();
                self.skip_space();
                if self.eat("]").is_some() {
                    return Some(Json::Array(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_space();
                    if self.eat("]").is_some() {
                        return Some(Json::Array(items));
                    }
                    self.eat(",")?;
                }
            }
            b'{' => {
                self.at += 1;
                let mut entries = Vec::new();
                self.skip_space();
                if self.eat("}").is_some() {
                    return Some(Json::Object(entries));
                }
                loop {
                    self.skip_space();
                    let key = self.string()?;
                    self.skip_space();
                    self.eat(":")?;
                    entries.push((key, self.value()?));
                    self.skip_space();
                    if self.eat("}").is_some() {
                        return Some(Json::Object(entries));
                    }
                    self.eat(",")?;
                }
            }
            _ => {
                let start = self.at;
                while self
                    .bytes
                    .get(self.at)
                    .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
                {
                    self.at += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.at])
                    .ok()?
                    .parse()
                    .ok()
                    .map(Json::Number)
            }
        }
    }

    fn string(&mut self) -> Option<String> {
        self.eat("\"")?;
        let mut out = Vec::new();
        loop {
            let byte = *self.bytes.get(self.at)?;
            self.at += 1;
            match byte {
                b'"' => return String::from_utf8(out).ok(),
                b'\\' => {
                    let escaped = *self.bytes.get(self.at)?;
                    self.at += 1;
                    out.push(match escaped {
                        b'n' => b'\n',
                        b't' => b'\t',
                        b'"' | b'\\' | b'/' => escaped,
                        // The runner never writes other escapes.
                        _ => return None,
                    });
                }
                _ => out.push(byte),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_nested_values_in_key_order() {
        let parsed =
            Json::parse(r#" {"b": [1, -2.5e3, true, null], "a": {"s": "x\"y"}, "n": 1e-7} "#)
                .expect("valid");
        let keys: Vec<&str> = parsed
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["b", "a", "n"]);
        assert_eq!(
            parsed.get("b"),
            Some(&Json::Array(vec![
                Json::Number(1.0),
                Json::Number(-2500.0),
                Json::Bool(true),
                Json::Null
            ]))
        );
        assert_eq!(
            parsed
                .get("a")
                .and_then(|a| a.get("s"))
                .and_then(Json::as_str),
            Some("x\"y")
        );
        assert_eq!(parsed.get("n").and_then(Json::as_f64), Some(1e-7));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "1 2",
            "{\"a\": tru}",
            "\"open",
        ] {
            assert_eq!(Json::parse(bad), None, "{bad}");
        }
    }
}
