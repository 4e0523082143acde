//! An independent reader for rendered reports.
//!
//! A rendered report reaches tens of megabytes, and the oracle must not trust
//! the renderer that wrote it. This is a strict single-pass JSON validator
//! that builds no tree: it checks the syntax of the whole document and pulls
//! out the three facts the oracle compares — the `path_count` and
//! `delivered_count` numbers and the length of the `paths` array.

/// What the oracle needs from a rendered report.
#[derive(Debug, PartialEq, Eq)]
pub struct Rendered {
    pub path_count: u64,
    pub delivered_count: u64,
    pub paths_len: u64,
}

struct Scanner<'a> {
    bytes: &'a [u8],
    pos: usize,
}

type Res<T> = Result<T, String>;

impl Scanner<'_> {
    fn fail<T>(&self, what: &str) -> Res<T> {
        Err(format!("{what} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Res<()> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            self.fail(&format!("expected '{}'", b as char))
        }
    }

    /// Scans a string and returns its raw (still escaped) contents.
    fn string(&mut self) -> Res<&[u8]> {
        self.eat(b'"')?;
        let start = self.pos;
        loop {
            match self.bytes.get(self.pos) {
                None => return self.fail("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(&self.bytes[start..self.pos - 1]);
                }
                Some(b'\\') => match self.bytes.get(self.pos + 1) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => self.pos += 2,
                    Some(b'u') => {
                        let hex = self.bytes.get(self.pos + 2..self.pos + 6);
                        if !hex.is_some_and(|h| h.iter().all(u8::is_ascii_hexdigit)) {
                            return self.fail("bad \\u escape");
                        }
                        self.pos += 6;
                    }
                    _ => return self.fail("bad escape"),
                },
                Some(c) if *c < 0x20 => return self.fail("control character in string"),
                Some(_) => self.pos += 1,
            }
        }
    }

    fn number(&mut self) -> Res<f64> {
        self.skip_ws();
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|t| t.parse::<f64>().ok())
            .map_or_else(|| self.fail("bad number"), Ok)
    }

    fn literal(&mut self, word: &str) -> Res<()> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            self.fail("bad literal")
        }
    }

    /// Validates and skips one value; for an array, returns its length.
    fn value(&mut self, depth: usize) -> Res<u64> {
        if depth > 64 {
            return self.fail("nesting too deep");
        }
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => self.fail("unexpected end of input"),
            Some(b'"') => self.string().map(|_| 0),
            Some(b't') => self.literal("true").map(|_| 0),
            Some(b'f') => self.literal("false").map(|_| 0),
            Some(b'n') => self.literal("null").map(|_| 0),
            Some(b'[') => {
                self.pos += 1;
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(0);
                }
                let mut len = 0;
                loop {
                    self.value(depth + 1)?;
                    len += 1;
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(len);
                        }
                        _ => return self.fail("expected ',' or ']'"),
                    }
                }
            }
            Some(b'{') => {
                self.object(depth, |_, _| {})?;
                Ok(0)
            }
            Some(_) => self.number().map(|_| 0),
        }
    }

    /// Validates one object, reporting each member's key and — for numbers
    /// and arrays — its value or length to `member`.
    fn object(&mut self, depth: usize, mut member: impl FnMut(&[u8], f64)) -> Res<()> {
        self.eat(b'{')?;
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            let key = self.string()?.to_vec();
            self.eat(b':')?;
            self.skip_ws();
            let seen = match self.bytes.get(self.pos) {
                Some(b'0'..=b'9' | b'-') => self.number()?,
                _ => self.value(depth + 1)? as f64,
            };
            member(&key, seen);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return self.fail("expected ',' or '}'"),
            }
        }
    }
}

/// Validates `text` as one JSON object and extracts the report's counts.
pub fn read_report(text: &str) -> Result<Rendered, String> {
    let mut scanner = Scanner {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let (mut path_count, mut delivered_count, mut paths_len) = (None, None, None);
    scanner.object(0, |key, seen| match key {
        b"path_count" => path_count = Some(seen as u64),
        b"delivered_count" => delivered_count = Some(seen as u64),
        b"paths" => paths_len = Some(seen as u64),
        _ => {}
    })?;
    scanner.skip_ws();
    if scanner.pos != scanner.bytes.len() {
        return scanner.fail("trailing input");
    }
    match (path_count, delivered_count, paths_len) {
        (Some(path_count), Some(delivered_count), Some(paths_len)) => Ok(Rendered {
            path_count,
            delivered_count,
            paths_len,
        }),
        _ => Err("report lacks path_count, delivered_count or paths".to_string()),
    }
}
