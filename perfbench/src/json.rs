//! A small JSON reader (no crate for it resolves offline): enough to read
//! `BENCHMARK.json` and the result lines this program writes itself.

#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    #[cfg(test)]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(o) => Some(o),
            _ => None,
        }
    }
}

pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        src: text.as_bytes(),
        at: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.at != p.src.len() {
        return Err(p.fail("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn fail(&self, what: &str) -> String {
        format!("JSON: {what} at byte {}", self.at)
    }

    fn skip_ws(&mut self) {
        while self.src.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.src[self.at..].starts_with(lit.as_bytes()) {
            self.at += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.src.get(self.at) {
            None => Err(self.fail("unexpected end")),
            Some(b'{') => {
                self.at += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.eat("}") {
                    return Ok(Value::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    if !self.eat(":") {
                        return Err(self.fail("expected ':'"));
                    }
                    fields.push((key, self.value()?));
                    self.skip_ws();
                    if self.eat("}") {
                        return Ok(Value::Obj(fields));
                    }
                    if !self.eat(",") {
                        return Err(self.fail("expected ',' or '}'"));
                    }
                }
            }
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.eat("]") {
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    if self.eat("]") {
                        return Ok(Value::Arr(items));
                    }
                    if !self.eat(",") {
                        return Err(self.fail("expected ',' or ']'"));
                    }
                }
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(_) if self.eat("true") => Ok(Value::Bool(true)),
            Some(_) if self.eat("false") => Ok(Value::Bool(false)),
            Some(_) if self.eat("null") => Ok(Value::Null),
            Some(_) => {
                let start = self.at;
                while self
                    .src
                    .get(self.at)
                    .is_some_and(|c| matches!(c, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.at += 1;
                }
                std::str::from_utf8(&self.src[start..self.at])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map(Value::Num)
                    .ok_or_else(|| self.fail("expected a value"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(self.fail("expected a string"));
        }
        let mut out = Vec::new();
        loop {
            match self.src.get(self.at) {
                None => return Err(self.fail("unterminated string")),
                Some(b'"') => {
                    self.at += 1;
                    return String::from_utf8(out).map_err(|_| self.fail("string is not UTF-8"));
                }
                Some(b'\\') => {
                    let esc = *self
                        .src
                        .get(self.at + 1)
                        .ok_or_else(|| self.fail("bad escape"))?;
                    self.at += 2;
                    match esc {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'"' | b'\\' | b'/' => out.push(esc),
                        b'u' => {
                            let hex = self
                                .src
                                .get(self.at..self.at + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.fail("bad \\u escape"))?;
                            self.at += 4;
                            out.extend_from_slice(hex.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        _ => return Err(self.fail("unknown escape")),
                    }
                }
                Some(&c) => {
                    out.push(c);
                    self.at += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_shapes_this_program_reads() {
        let v = parse(
            r#" {"command": ["cargo", "run"], "run_seconds": 20, "ok": true,
                "metrics": {"qps_sat": {"value": 3.5e4, "unit": "1/s"}}, "why": "a \"b\" µs", "n": null} "#,
        )
        .unwrap();
        assert_eq!(v.get("run_seconds").and_then(Value::as_f64), Some(20.0));
        assert_eq!(
            v.get("command")
                .and_then(Value::as_array)
                .map(<[Value]>::len),
            Some(2)
        );
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(v.get("n"), Some(&Value::Null));
        let m = v.get("metrics").and_then(|m| m.get("qps_sat")).unwrap();
        assert_eq!(m.get("value").and_then(Value::as_f64), Some(35_000.0));
        assert_eq!(m.get("unit").and_then(Value::as_str), Some("1/s"));
        assert_eq!(v.get("why").and_then(Value::as_str), Some("a \"b\" µs"));
        assert_eq!(parse("[]").unwrap(), Value::Arr(vec![]));
        assert_eq!(parse("-1.25").unwrap(), Value::Num(-1.25));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "{\"a\" 1}",
            "[1,]",
            "\"open",
            "{} x",
            "nul",
            "{\"a\":}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }
}
