//! Just enough JSON to read `BENCHMARK.json` back (the container has no
//! serde): `--check` compares it with the metric tables and `--repeat`
//! takes the bounds from it.

/// A parsed JSON value. Objects keep their key order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { bytes: text.as_bytes(), at: 0 };
        let value = p.value()?;
        p.space();
        if p.at != p.bytes.len() {
            return Err(p.error("trailing input"));
        }
        Ok(value)
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_array(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            _ => &[],
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("JSON: {what} at byte {}", self.at)
    }

    fn space(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, literal: &str) -> bool {
        let hit = self.bytes[self.at..].starts_with(literal.as_bytes());
        if hit {
            self.at += literal.len();
        }
        hit
    }

    fn value(&mut self) -> Result<Json, String> {
        self.space();
        match self.bytes.get(self.at) {
            Some(b'{') => {
                self.at += 1;
                let mut members = Vec::new();
                self.space();
                if self.eat("}") {
                    return Ok(Json::Obj(members));
                }
                loop {
                    self.space();
                    let key = self.string()?;
                    self.space();
                    if !self.eat(":") {
                        return Err(self.error("expected ':'"));
                    }
                    members.push((key, self.value()?));
                    self.space();
                    if self.eat("}") {
                        return Ok(Json::Obj(members));
                    }
                    if !self.eat(",") {
                        return Err(self.error("expected ',' or '}'"));
                    }
                }
            }
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                self.space();
                if self.eat("]") {
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.space();
                    if self.eat("]") {
                        return Ok(Json::Arr(items));
                    }
                    if !self.eat(",") {
                        return Err(self.error("expected ',' or ']'"));
                    }
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) => {
                let start = self.at;
                while self
                    .bytes
                    .get(self.at)
                    .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
                {
                    self.at += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.at])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| self.error("expected a value"))
            }
            None => Err(self.error("unexpected end")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(self.error("expected a string"));
        }
        let mut out = Vec::new();
        loop {
            let b = *self.bytes.get(self.at).ok_or_else(|| self.error("unterminated string"))?;
            self.at += 1;
            match b {
                b'"' => return String::from_utf8(out).map_err(|_| self.error("invalid UTF-8")),
                b'\\' => {
                    let e = *self.bytes.get(self.at).ok_or_else(|| self.error("bad escape"))?;
                    self.at += 1;
                    out.push(match e {
                        b'"' | b'\\' | b'/' => e,
                        b'n' => b'\n',
                        b't' => b'\t',
                        b'r' => b'\r',
                        // BENCHMARK.json is ASCII; \u escapes are not needed.
                        _ => return Err(self.error("unsupported escape")),
                    });
                }
                _ => out.push(b),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_shapes_benchmark_json_uses() {
        let j = Json::parse(
            r#"{"command": ["cargo", "run"], "run_seconds": 12,
                "end_to_end": [{"name": "setup_s", "bound": 0.25, "x": null, "y": true}],
                "s": "a\"b\\c"}"#,
        )
        .unwrap();
        assert_eq!(j.get("run_seconds").and_then(Json::as_f64), Some(12.0));
        assert_eq!(j.get("command").unwrap().as_array().len(), 2);
        let metric = &j.get("end_to_end").unwrap().as_array()[0];
        assert_eq!(metric.get("name").and_then(Json::as_str), Some("setup_s"));
        assert_eq!(metric.get("bound").and_then(Json::as_f64), Some(0.25));
        assert_eq!(metric.get("x"), Some(&Json::Null));
        assert_eq!(j.get("s").and_then(Json::as_str), Some("a\"b\\c"));
        assert_eq!(j.get("missing"), None);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "{\"a\":1} x", "\"open", "nul"] {
            assert!(Json::parse(bad).is_err(), "{bad}");
        }
    }
}
