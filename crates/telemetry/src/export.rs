//! Trace exporters: native line format and Chrome `trace_event` JSON.
//!
//! Every exporter is a pure function of the merged record order, formats
//! integers only (timestamps render as fixed-point microseconds computed
//! with integer arithmetic — no float formatting anywhere), and appends
//! in the canonical `(time, domain, seq)` order. Identical inputs
//! therefore produce byte-identical output on any platform, thread
//! count, or run — the property the determinism suite asserts.

use std::fmt::Write as _;

use crate::trace::{DdioOutcome, DmaRoute, Domain, TraceKind, TraceRecord, TraceSet};

/// Version tag of the native format (first line of every artifact).
pub const NATIVE_HEADER: &str = "# ioctopus-trace v1";

/// Renders a record timestamp (picoseconds) as fixed-point microseconds,
/// entirely in integer arithmetic.
fn ps_as_us(ps: u64) -> String {
    format!("{}.{:06}", ps / 1_000_000, ps % 1_000_000)
}

// ---------------------------------------------------------------------
// Native line format
// ---------------------------------------------------------------------

/// Renders the native line format: a header, a retention summary, then
/// one `t_ps domain kind seq a b c d` line per record in merge order.
pub fn to_native(set: &TraceSet) -> String {
    let merged = set.merged();
    let mut out = String::new();
    out.push_str(NATIVE_HEADER);
    out.push('\n');
    let _ = writeln!(
        out,
        "# retained={} overwritten={}",
        merged.len(),
        set.overwritten()
    );
    for (d, r) in &merged {
        let _ = writeln!(
            out,
            "{} {} {} {} {} {} {} {}",
            r.t.as_ps(),
            d.name(),
            r.kind.name(),
            r.seq,
            r.a,
            r.b,
            r.c,
            r.d
        );
    }
    out
}

/// Parses a native artifact back into merged `(domain, record)` rows.
pub fn parse_native(s: &str) -> Result<Vec<(Domain, TraceRecord)>, String> {
    let mut lines = s.lines();
    match lines.next() {
        Some(h) if h == NATIVE_HEADER => {}
        other => return Err(format!("bad header: {other:?}")),
    }
    let mut out = Vec::new();
    for (i, line) in lines.enumerate() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let mut f = line.split_ascii_whitespace();
        let mut num = |name: &str| -> Result<u64, String> {
            f.next()
                .ok_or_else(|| format!("line {}: missing {name}", i + 2))?
                .parse::<u64>()
                .map_err(|e| format!("line {}: bad {name}: {e}", i + 2))
        };
        let t = simcore::Time::from_ps(num("t")?);
        let domain = {
            let tok = f
                .next()
                .ok_or_else(|| format!("line {}: missing domain", i + 2))?;
            Domain::parse(tok).ok_or_else(|| format!("line {}: unknown domain {tok:?}", i + 2))?
        };
        let kind = {
            let tok = f
                .next()
                .ok_or_else(|| format!("line {}: missing kind", i + 2))?;
            TraceKind::parse(tok).ok_or_else(|| format!("line {}: unknown kind {tok:?}", i + 2))?
        };
        let mut num = |name: &str| -> Result<u64, String> {
            f.next()
                .ok_or_else(|| format!("line {}: missing {name}", i + 2))?
                .parse::<u64>()
                .map_err(|e| format!("line {}: bad {name}: {e}", i + 2))
        };
        let (seq, a, b, c, d) = (num("seq")?, num("a")?, num("b")?, num("c")?, num("d")?);
        if f.next().is_some() {
            return Err(format!("line {}: trailing fields", i + 2));
        }
        out.push((
            domain,
            TraceRecord {
                t,
                seq,
                kind,
                a,
                b,
                c,
                d,
            },
        ));
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Chrome trace_event JSON
// ---------------------------------------------------------------------

fn ddio_name(d: DdioOutcome) -> &'static str {
    match d {
        DdioOutcome::Hit => "hit",
        DdioOutcome::Miss => "miss",
        DdioOutcome::NotApplicable => "n/a",
    }
}

/// Renders Chrome `trace_event` JSON (the object form: `traceEvents`
/// plus metadata). DMA records become complete (`"ph":"X"`) events
/// spanning issue→landing; everything else is an instant event. One
/// trace "thread" per domain, named by metadata events.
pub fn to_chrome_json(set: &TraceSet) -> String {
    let merged = set.merged();
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if first {
            first = false;
        } else {
            out.push(',');
        }
    };
    for d in [
        Domain::Nic,
        Domain::Kernel,
        Domain::Pcie,
        Domain::Mem,
        Domain::Net,
    ] {
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":{},\
             \"args\":{{\"name\":\"{}\"}}}}",
            d as u8,
            d.name()
        );
    }
    for (d, r) in &merged {
        sep(&mut out);
        let tid = *d as u8;
        let ts = ps_as_us(r.t.as_ps());
        match r.kind {
            TraceKind::DmaRead | TraceKind::DmaWrite => {
                let route = DmaRoute::unpack(r.b);
                let dur_ps = r.c.saturating_sub(r.t.as_ps());
                let _ = write!(
                    out,
                    "{{\"ph\":\"X\",\"name\":\"{}\",\"pid\":1,\"tid\":{tid},\
                     \"ts\":{ts},\"dur\":{},\"args\":{{\"flow\":\"{:#018x}\",\
                     \"pf\":{},\"src_node\":{},\"dst_node\":{},\"local\":{},\
                     \"ddio\":\"{}\",\"bytes\":{}}}}}",
                    r.kind.name(),
                    ps_as_us(dur_ps),
                    r.a,
                    route.pf,
                    route.src_node,
                    route.dst_node,
                    route.local,
                    ddio_name(route.ddio),
                    r.d
                );
            }
            TraceKind::FlowSteered => {
                let _ = write!(
                    out,
                    "{{\"ph\":\"i\",\"s\":\"t\",\"name\":\"flow_steered\",\"pid\":1,\
                     \"tid\":{tid},\"ts\":{ts},\"args\":{{\"flow\":\"{:#018x}\",\
                     \"pf\":{},\"queue\":{},\"failover\":{}}}}}",
                    r.a, r.b, r.c, r.d
                );
            }
            TraceKind::IrqDelivered => {
                let _ = write!(
                    out,
                    "{{\"ph\":\"i\",\"s\":\"t\",\"name\":\"irq_delivered\",\"pid\":1,\
                     \"tid\":{tid},\"ts\":{ts},\"args\":{{\"queue\":{},\"core\":{},\
                     \"epoch\":{}}}}}",
                    r.a, r.b, r.c
                );
            }
            TraceKind::ReconfigPhase => {
                let phase = match r.b {
                    0 => "quiesce",
                    1 => "drain",
                    _ => "rebind",
                };
                let mode = if r.d == 1 { "nudma" } else { "uniform" };
                let _ = write!(
                    out,
                    "{{\"ph\":\"i\",\"s\":\"t\",\"name\":\"reconfig_{phase}\",\"pid\":1,\
                     \"tid\":{tid},\"ts\":{ts},\"args\":{{\"pf\":{},\"epoch\":{},\
                     \"mode\":\"{mode}\"}}}}",
                    r.a, r.c
                );
            }
        }
    }
    let _ = write!(
        out,
        "],\"displayTimeUnit\":\"ns\",\"otherData\":{{\"generator\":\
         \"ioctopus-telemetry\",\"format\":\"v1\",\"retained\":{},\
         \"overwritten\":{}}}}}",
        merged.len(),
        set.overwritten()
    );
    out
}

// ---------------------------------------------------------------------
// Minimal JSON structural validator (no serde in this workspace)
// ---------------------------------------------------------------------

/// A dependency-free JSON reader, just enough to validate exporter
/// output and the Chrome `trace_event` schema in CI.
pub mod json {
    /// Validates that `s` is well-formed JSON *and* matches the Chrome
    /// trace shape: a top-level object whose `traceEvents` member is an
    /// array of objects each carrying `ph`, `name`, `pid` and `tid`
    /// (plus `ts` for non-metadata events). Returns the event count.
    pub fn validate_chrome(s: &str) -> Result<usize, String> {
        let v = parse(s)?;
        let Value::Object(members) = v else {
            return Err("top level is not an object".into());
        };
        let Some(Value::Array(events)) = members
            .iter()
            .find(|(k, _)| k == "traceEvents")
            .map(|(_, v)| v)
        else {
            return Err("missing traceEvents array".into());
        };
        for (i, ev) in events.iter().enumerate() {
            let Value::Object(fields) = ev else {
                return Err(format!("event {i} is not an object"));
            };
            let get = |k: &str| fields.iter().find(|(n, _)| n == k).map(|(_, v)| v);
            let Some(Value::String(ph)) = get("ph") else {
                return Err(format!("event {i}: missing ph"));
            };
            if !matches!(get("name"), Some(Value::String(_))) {
                return Err(format!("event {i}: missing name"));
            }
            for k in ["pid", "tid"] {
                if !matches!(get(k), Some(Value::Number(_))) {
                    return Err(format!("event {i}: missing {k}"));
                }
            }
            if ph != "M" && !matches!(get("ts"), Some(Value::Number(_))) {
                return Err(format!("event {i}: missing ts"));
            }
        }
        Ok(events.len())
    }

    /// A parsed JSON value (strings and numbers are kept as text — the
    /// validator only needs structure).
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// `null`
        Null,
        /// `true` / `false`
        Bool(bool),
        /// Any JSON number, kept as its source text.
        Number(String),
        /// A decoded string (escapes resolved enough for comparisons).
        String(String),
        /// An array.
        Array(Vec<Value>),
        /// An object as ordered members.
        Object(Vec<(String, Value)>),
    }

    /// Parses `s` as a single JSON value.
    pub fn parse(s: &str) -> Result<Value, String> {
        let b = s.as_bytes();
        let mut i = 0;
        let v = value(b, &mut i)?;
        skip_ws(b, &mut i);
        if i != b.len() {
            return Err(format!("trailing bytes at {i}"));
        }
        Ok(v)
    }

    fn skip_ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
            *i += 1;
        }
    }

    fn value(b: &[u8], i: &mut usize) -> Result<Value, String> {
        skip_ws(b, i);
        match b.get(*i) {
            Some(b'{') => object(b, i),
            Some(b'[') => array(b, i),
            Some(b'"') => Ok(Value::String(string(b, i)?)),
            Some(b't') => lit(b, i, "true", Value::Bool(true)),
            Some(b'f') => lit(b, i, "false", Value::Bool(false)),
            Some(b'n') => lit(b, i, "null", Value::Null),
            Some(_) => number(b, i),
            None => Err("unexpected end of input".into()),
        }
    }

    fn lit(b: &[u8], i: &mut usize, word: &str, v: Value) -> Result<Value, String> {
        if b[*i..].starts_with(word.as_bytes()) {
            *i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at {i}"))
        }
    }

    fn number(b: &[u8], i: &mut usize) -> Result<Value, String> {
        let start = *i;
        if matches!(b.get(*i), Some(b'-')) {
            *i += 1;
        }
        let digits = |b: &[u8], i: &mut usize| {
            let s = *i;
            while matches!(b.get(*i), Some(c) if c.is_ascii_digit()) {
                *i += 1;
            }
            *i > s
        };
        if !digits(b, i) {
            return Err(format!("bad number at {start}"));
        }
        if matches!(b.get(*i), Some(b'.')) {
            *i += 1;
            if !digits(b, i) {
                return Err(format!("bad fraction at {start}"));
            }
        }
        if matches!(b.get(*i), Some(b'e' | b'E')) {
            *i += 1;
            if matches!(b.get(*i), Some(b'+' | b'-')) {
                *i += 1;
            }
            if !digits(b, i) {
                return Err(format!("bad exponent at {start}"));
            }
        }
        Ok(Value::Number(
            std::str::from_utf8(&b[start..*i]).unwrap().to_string(),
        ))
    }

    fn string(b: &[u8], i: &mut usize) -> Result<String, String> {
        debug_assert_eq!(b[*i], b'"');
        *i += 1;
        let mut out = String::new();
        loop {
            match b.get(*i) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    *i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *i += 1;
                    match b.get(*i) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = b
                                .get(*i + 1..*i + 5)
                                .ok_or_else(|| "short \\u escape".to_string())?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            *i += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    *i += 1;
                }
                Some(&c) => {
                    // Multi-byte UTF-8 passes through untouched.
                    out.push(c as char);
                    *i += 1;
                }
            }
        }
    }

    fn array(b: &[u8], i: &mut usize) -> Result<Value, String> {
        *i += 1; // '['
        let mut out = Vec::new();
        skip_ws(b, i);
        if matches!(b.get(*i), Some(b']')) {
            *i += 1;
            return Ok(Value::Array(out));
        }
        loop {
            out.push(value(b, i)?);
            skip_ws(b, i);
            match b.get(*i) {
                Some(b',') => *i += 1,
                Some(b']') => {
                    *i += 1;
                    return Ok(Value::Array(out));
                }
                other => return Err(format!("bad array separator {other:?} at {i}")),
            }
        }
    }

    fn object(b: &[u8], i: &mut usize) -> Result<Value, String> {
        *i += 1; // '{'
        let mut out = Vec::new();
        skip_ws(b, i);
        if matches!(b.get(*i), Some(b'}')) {
            *i += 1;
            return Ok(Value::Object(out));
        }
        loop {
            skip_ws(b, i);
            if !matches!(b.get(*i), Some(b'"')) {
                return Err(format!("expected member name at {i}"));
            }
            let k = string(b, i)?;
            skip_ws(b, i);
            if !matches!(b.get(*i), Some(b':')) {
                return Err(format!("expected ':' at {i}"));
            }
            *i += 1;
            let v = value(b, i)?;
            out.push((k, v));
            skip_ws(b, i);
            match b.get(*i) {
                Some(b',') => *i += 1,
                Some(b'}') => {
                    *i += 1;
                    return Ok(Value::Object(out));
                }
                other => return Err(format!("bad object separator {other:?} at {i}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceRing;
    use simcore::Time;

    fn sample_set() -> TraceSet {
        let mut nic = TraceRing::new(Domain::Nic, 16);
        let route = DmaRoute {
            pf: 0,
            src_node: 0,
            dst_node: 0,
            local: true,
            ddio: DdioOutcome::Hit,
        };
        nic.push(
            Time::from_us(1),
            TraceKind::DmaWrite,
            0xdead,
            route.pack(),
            Time::from_us(2).as_ps(),
            1448,
        );
        nic.push(Time::from_us(1), TraceKind::FlowSteered, 0xdead, 0, 3, 0);
        let mut kern = TraceRing::new(Domain::Kernel, 16);
        kern.push(Time::from_us(3), TraceKind::IrqDelivered, 3, 0, 0, 0);
        kern.push(Time::from_us(4), TraceKind::ReconfigPhase, 0, 1, 2, 1);
        let mut set = TraceSet::new();
        set.add(nic);
        set.add(kern);
        set
    }

    #[test]
    fn native_roundtrips() {
        let set = sample_set();
        let text = to_native(&set);
        let parsed = parse_native(&text).unwrap();
        assert_eq!(parsed, set.merged());
    }

    #[test]
    fn chrome_json_validates() {
        let set = sample_set();
        let j = to_chrome_json(&set);
        let n = json::validate_chrome(&j).unwrap();
        // 5 thread-name metadata events + 4 records.
        assert_eq!(n, 9);
    }

    #[test]
    fn timestamps_render_in_integer_microseconds() {
        assert_eq!(super::ps_as_us(1_234_567), "1.234567");
        assert_eq!(super::ps_as_us(42), "0.000042");
    }

    #[test]
    fn validator_rejects_malformed_events() {
        assert!(json::validate_chrome("{\"traceEvents\":[{\"ph\":\"X\"}]}").is_err());
        assert!(json::validate_chrome("not json").is_err());
        assert!(json::validate_chrome("[1,2]").is_err());
    }
}
