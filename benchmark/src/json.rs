//! A JSON reader just large enough for the benchmark's own result lines
//! (`--repeat-check` reads them back from the runs it starts) and for the
//! tests that hold `BENCHMARK.json` against the metric catalogue.

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
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let value = p.value()?;
        p.space();
        if p.i == p.s.len() {
            Ok(value)
        } else {
            Err(format!("trailing input at byte {}", p.i))
        }
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    #[cfg(test)]
    pub fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            _ => Vec::new(),
        }
    }

    #[cfg(test)]
    pub fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            _ => &[],
        }
    }

    #[cfg(test)]
    pub fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn space(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Result<(), String> {
        self.space();
        if self.s.get(self.i) == Some(&byte) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", byte as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.space();
        match self.s.get(self.i) {
            Some(b'{') => self
                .sequence(b'}', |p| {
                    let key = p.string()?;
                    p.eat(b':')?;
                    Ok((key, p.value()?))
                })
                .map(Json::Obj),
            Some(b'[') => self.sequence(b']', Self::value).map(Json::Arr),
            Some(b'"') => self.string().map(Json::Str),
            Some(_) => self.word(),
            None => Err("unexpected end".into()),
        }
    }

    /// Comma-separated items between the bracket at the cursor and `close`.
    fn sequence<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.i += 1;
        let mut items = Vec::new();
        self.space();
        if self.s.get(self.i) == Some(&close) {
            self.i += 1;
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            self.space();
            match self.s.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b) if *b == close => {
                    self.i += 1;
                    return Ok(items);
                }
                _ => return Err(format!("expected ',' or close at byte {}", self.i)),
            }
        }
    }

    /// A string without escapes other than `\"` and `\\`; enough for names,
    /// units and one-line reasons.
    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.s.get(self.i) {
                Some(b'"') => {
                    self.i += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') if matches!(self.s.get(self.i + 1), Some(b'"' | b'\\')) => {
                    out.push(self.s[self.i + 1]);
                    self.i += 2;
                }
                Some(b'\\') => return Err(format!("unsupported escape at byte {}", self.i)),
                Some(&b) => {
                    out.push(b);
                    self.i += 1;
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn word(&mut self) -> Result<Json, String> {
        let start = self.i;
        while self
            .s
            .get(self.i)
            .is_some_and(|b| b.is_ascii_alphanumeric() || b"+-.".contains(b))
        {
            self.i += 1;
        }
        match std::str::from_utf8(&self.s[start..self.i]).map_err(|e| e.to_string())? {
            "null" => Ok(Json::Null),
            "true" => Ok(Json::Bool(true)),
            "false" => Ok(Json::Bool(false)),
            number => number
                .parse()
                .map(Json::Num)
                .map_err(|_| format!("bad token {number:?} at byte {start}")),
        }
    }
}

#[test]
fn parses_the_shapes_the_tests_need() {
    let doc = Json::parse(
        r#"{"a": [1, 2.5e1, -3], "b": {"c": "x \"y\""}, "d": true, "e": null, "f": []}"#,
    )
    .unwrap();
    assert_eq!(doc.keys(), ["a", "b", "d", "e", "f"]);
    let nums: Vec<f64> = doc
        .get("a")
        .unwrap()
        .items()
        .iter()
        .filter_map(Json::num)
        .collect();
    assert_eq!(nums, [1.0, 25.0, -3.0]);
    assert_eq!(
        doc.get("b").unwrap().get("c").unwrap().str(),
        Some("x \"y\"")
    );
    assert_eq!(doc.get("d"), Some(&Json::Bool(true)));
    assert_eq!(doc.get("e"), Some(&Json::Null));
    assert!(doc.get("f").unwrap().items().is_empty());
    assert!(Json::parse("{\"a\": 1} x").is_err());
    assert!(Json::parse("[1,").is_err());
}
