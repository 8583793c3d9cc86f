//! Builtin procedures and native-method fallbacks.
//!
//! These are the subset of Icon's built-in functions the paper's examples
//! rely on (`write`, `put`, list and table construction, `sqrt`, the
//! `isprime` filter of the Sec. II example) plus the `::` method fallbacks
//! used in Fig. 3 (`split`, `add`).

use super::Interp;
use bigint::BigInt;
use gde::func::arg;
use gde::ops;
use gde::{ProcValue, Value};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Install the builtin procedures into the interpreter's globals.
pub(super) fn install(interp: &Interp) {
    let shared = Arc::clone(interp.shared());

    // write(x1, x2, ...): concatenates string images, appends a newline,
    // captures (and optionally echoes); returns its last argument.
    {
        let shared = Arc::clone(&shared);
        interp.register_proc(ProcValue::native("write", move |args| {
            let text: String = args.iter().map(image_for_write).collect();
            if shared.echo.load(Ordering::Relaxed) {
                println!("{text}");
            }
            let mut line = std::mem::take(&mut *shared.pending.lock());
            line.push_str(&text);
            shared.output.lock().push(line);
            Some(args.last().cloned().unwrap_or(Value::Null))
        }));
    }
    // writes(x1, ...): like write but no newline (appends to last line).
    {
        let shared = Arc::clone(&shared);
        interp.register_proc(ProcValue::native("writes", move |args| {
            let text: String = args.iter().map(image_for_write).collect();
            if shared.echo.load(Ordering::Relaxed) {
                print!("{text}");
            }
            shared.pending.lock().push_str(&text);
            Some(args.last().cloned().unwrap_or(Value::Null))
        }));
    }

    // put(L, x1, ...): append to a list; returns the list.
    interp.register_proc(ProcValue::native("put", |args| {
        let list = arg(args, 0);
        let l = list.as_list()?.clone();
        for v in &args[1..] {
            l.lock().push(v.clone());
        }
        Some(list)
    }));
    // push(L, x): prepend.
    interp.register_proc(ProcValue::native("push", |args| {
        let list = arg(args, 0);
        let l = list.as_list()?.clone();
        for v in &args[1..] {
            l.lock().insert(0, v.clone());
        }
        Some(list)
    }));
    // get(L) / pop(L): remove and return the first element; fails if empty.
    for name in ["get", "pop"] {
        interp.register_proc(ProcValue::native(name, |args| {
            let list = arg(args, 0);
            let l = list.as_list()?.clone();
            let mut l = l.lock();
            if l.is_empty() {
                None
            } else {
                Some(l.remove(0))
            }
        }));
    }
    // pull(L): remove and return the last element.
    interp.register_proc(ProcValue::native("pull", |args| {
        let list = arg(args, 0);
        let l = list.as_list()?.clone();
        let v = l.lock().pop();
        v
    }));

    // list(n, x): a list of n copies of x (default null); list() is empty.
    interp.register_proc(ProcValue::native("list", |args| match arg(args, 0) {
        Value::Null => Some(Value::list(Vec::new())),
        n => {
            let n = n.as_int()?;
            let init = arg(args, 1);
            Some(Value::list(vec![init; n.max(0) as usize]))
        }
    }));
    // table(): a fresh table (default value via arg 0).
    interp.register_proc(ProcValue::native("table", |args| {
        let t = Value::table();
        if let (Value::Table(h), d) = (&t, arg(args, 0)) {
            h.lock().default = d;
        }
        Some(t)
    }));
    // insert(T, k, v): insert into a table; returns the table.
    interp.register_proc(ProcValue::native("insert", |args| {
        let t = arg(args, 0);
        ops::index_assign(&t, &arg(args, 1), arg(args, 2))?;
        Some(t)
    }));
    // member(T, k): succeeds producing k if present.
    interp.register_proc(ProcValue::native("member", |args| {
        let t = arg(args, 0);
        let k = arg(args, 1);
        match t.deref() {
            Value::Table(h) => {
                h.lock().lookup(&k).flatten()?;
                Some(k)
            }
            _ => None,
        }
    }));

    // image(x): the string image; type(x): the type name.
    interp.register_proc(ProcValue::native("image", |args| {
        Some(Value::from(format!("{:?}", arg(args, 0))))
    }));
    interp.register_proc(ProcValue::native("type", |args| {
        Some(Value::str(arg(args, 0).type_name()))
    }));

    // numeric coercions: integer(x), real(x), string(x), numeric(x).
    interp.register_proc(ProcValue::native("integer", |args| {
        match ops::to_num(&arg(args, 0))? {
            ops::Num::Int(i) => Some(Value::Int(i)),
            ops::Num::Big(b) => Some(Value::big(b)),
            ops::Num::Real(r) => Some(Value::Int(r as i64)),
        }
    }));
    interp.register_proc(ProcValue::native("real", |args| {
        match ops::to_num(&arg(args, 0))? {
            ops::Num::Int(i) => Some(Value::Real(i as f64)),
            ops::Num::Big(b) => Some(Value::Real(b.to_f64())),
            ops::Num::Real(r) => Some(Value::Real(r)),
        }
    }));
    interp.register_proc(ProcValue::native("string", |args| {
        ops::to_str(&arg(args, 0)).map(Value::Str)
    }));
    interp.register_proc(ProcValue::native("numeric", |args| {
        let v = arg(args, 0);
        ops::to_num(&v).map(|n| match n {
            ops::Num::Int(i) => Value::Int(i),
            ops::Num::Big(b) => Value::big(b),
            ops::Num::Real(r) => Value::Real(r),
        })
    }));

    // math: sqrt (real), isqrt (integer floor), abs, min, max.
    interp.register_proc(ProcValue::native("sqrt", |args| {
        match ops::to_num(&arg(args, 0))? {
            ops::Num::Int(i) if i >= 0 => Some(Value::Real((i as f64).sqrt())),
            ops::Num::Big(b) if !b.is_negative() => Some(Value::Real(b.to_f64().sqrt())),
            ops::Num::Real(r) if r >= 0.0 => Some(Value::Real(r.sqrt())),
            _ => None,
        }
    }));
    interp.register_proc(ProcValue::native("isqrt", |args| {
        match ops::to_num(&arg(args, 0))? {
            ops::Num::Int(i) if i >= 0 => Some(Value::big(BigInt::from(i).sqrt())),
            ops::Num::Big(b) if !b.is_negative() => Some(Value::big(b.sqrt())),
            _ => None,
        }
    }));
    interp.register_proc(ProcValue::native("abs", |args| {
        match ops::to_num(&arg(args, 0))? {
            ops::Num::Int(i) => Some(Value::Int(i.abs())),
            ops::Num::Big(b) => Some(Value::big(b.abs())),
            ops::Num::Real(r) => Some(Value::Real(r.abs())),
        }
    }));
    interp.register_proc(ProcValue::native("min", |args| {
        args.iter()
            .cloned()
            .reduce(|a, b| if ops::le(&a, &b).is_some() { a } else { b })
    }));
    interp.register_proc(ProcValue::native("max", |args| {
        args.iter()
            .cloned()
            .reduce(|a, b| if ops::ge(&a, &b).is_some() { a } else { b })
    }));

    // isprime(n): produce n if it is a (probable) prime, else fail —
    // the filter from the paper's opening example.
    interp.register_proc(ProcValue::native("isprime", |args| {
        let v = arg(args, 0);
        let prime = match ops::to_num(&v)? {
            ops::Num::Int(i) if i >= 2 => BigInt::from(i).is_probable_prime(),
            ops::Num::Big(b) => b.is_probable_prime(),
            _ => false,
        };
        if prime {
            Some(v)
        } else {
            None
        }
    }));
    // nextprime(n): the next probable prime above n.
    interp.register_proc(ProcValue::native("nextprime", |args| {
        match ops::to_num(&arg(args, 0))? {
            ops::Num::Int(i) => Some(Value::big(BigInt::from(i).next_probable_prime())),
            ops::Num::Big(b) => Some(Value::big(b.next_probable_prime())),
            _ => None,
        }
    }));

    // copy(x): deep copy (structure isolation).
    interp.register_proc(ProcValue::native("copy", |args| {
        Some(arg(args, 0).deep_copy())
    }));

    install_strings(interp);
    install_scanning(interp);
    install_sequences(interp);
}

/// Icon's string-processing functions — "search has particular application
/// in string processing, the forte of Icon and Unicon" (Sec. II.A). The
/// position-returning functions are *generators* (find/upto produce every
/// position), which is what makes them compose with goal-directed search.
fn install_strings(interp: &Interp) {
    // find(s1, s2): generate each 1-based position where s1 occurs in s2.
    // find(s1) inside `subject ? expr` searches the scan subject from &pos.
    interp.register_proc(ProcValue::new("find", |args| {
        let needle = ops::to_str(&arg(&args, 0));
        let (hay, from) = scanning_subject(&args, 1);
        let positions: Vec<Value> = match (needle, hay) {
            (Some(n), Some(h)) if !n.is_empty() => {
                let h_chars: Vec<char> = h.chars().collect();
                let n_chars: Vec<char> = n.chars().collect();
                (0..=h_chars.len().saturating_sub(n_chars.len()))
                    .filter(|&i| i as i64 + 1 >= from)
                    .filter(|&i| h_chars[i..i + n_chars.len()] == n_chars[..])
                    .map(|i| Value::from(i as i64 + 1))
                    .collect()
            }
            _ => Vec::new(),
        };
        Box::new(gde::comb::values(positions))
    }));
    // upto(c, s): generate each position in s holding a char of c.
    // upto(c) searches the scan subject from &pos.
    interp.register_proc(ProcValue::new("upto", |args| {
        let cset = ops::to_str(&arg(&args, 0));
        let (subject, from) = scanning_subject(&args, 1);
        let positions: Vec<Value> = match (cset, subject) {
            (Some(c), Some(s)) => s
                .chars()
                .enumerate()
                .filter(|(i, _)| *i as i64 + 1 >= from)
                .filter(|(_, ch)| c.contains(*ch))
                .map(|(i, _)| Value::from(i as i64 + 1))
                .collect(),
            _ => Vec::new(),
        };
        Box::new(gde::comb::values(positions))
    }));
    // many(c, s): position after the longest run of chars in c starting at
    // the beginning (or at &pos in scanning form); fails on an empty run.
    interp.register_proc(ProcValue::native("many", |args| {
        let c = ops::to_str(&arg(args, 0))?;
        let (s, from) = scanning_subject(args, 1);
        let s = s?;
        let run = s
            .chars()
            .skip(from as usize - 1)
            .take_while(|ch| c.contains(*ch))
            .count();
        if run == 0 {
            None
        } else {
            Some(Value::from(from + run as i64))
        }
    }));
    // match(s1, s2): position after s1 if s2 continues with it (at the
    // start, or at &pos in scanning form), else fail.
    interp.register_proc(ProcValue::native("match", |args| {
        let prefix = ops::to_str(&arg(args, 0))?;
        let (s, from) = scanning_subject(args, 1);
        let s = s?;
        let rest: String = s.chars().skip(from as usize - 1).collect();
        if rest.starts_with(prefix.as_ref()) {
            Some(Value::from(from + prefix.chars().count() as i64))
        } else {
            None
        }
    }));
    // repl(s, n): s repeated n times.
    interp.register_proc(ProcValue::native("repl", |args| {
        let s = ops::to_str(&arg(args, 0))?;
        let n = arg(args, 1).as_int()?;
        Some(Value::from(s.repeat(n.max(0) as usize)))
    }));
    // reverse(s).
    interp.register_proc(ProcValue::native("reverse", |args| {
        let s = ops::to_str(&arg(args, 0))?;
        Some(Value::from(s.chars().rev().collect::<String>()))
    }));
    // trim(s): strip trailing spaces (Icon's default).
    interp.register_proc(ProcValue::native("trim", |args| {
        let s = ops::to_str(&arg(args, 0))?;
        Some(Value::str(s.trim_end_matches(' ')))
    }));
    // left(s, n, pad) / right / center: field adjustment.
    fn pad_char(args: &[Value]) -> char {
        args.get(2)
            .and_then(|p| p.as_str())
            .and_then(|p| p.chars().next())
            .unwrap_or(' ')
    }
    interp.register_proc(ProcValue::native("left", |args| {
        let s = ops::to_str(&arg(args, 0))?;
        let n = arg(args, 1).as_int()?.max(0) as usize;
        let chars: Vec<char> = s.chars().collect();
        let mut out: String = chars.iter().take(n).collect();
        while out.chars().count() < n {
            out.push(pad_char(args));
        }
        Some(Value::from(out))
    }));
    interp.register_proc(ProcValue::native("right", |args| {
        let s = ops::to_str(&arg(args, 0))?;
        let n = arg(args, 1).as_int()?.max(0) as usize;
        let chars: Vec<char> = s.chars().collect();
        let taken: String = chars
            .iter()
            .rev()
            .take(n)
            .collect::<Vec<_>>()
            .into_iter()
            .rev()
            .collect();
        let mut out = String::new();
        while out.chars().count() + taken.chars().count() < n {
            out.push(pad_char(args));
        }
        out.push_str(&taken);
        Some(Value::from(out))
    }));
    interp.register_proc(ProcValue::native("center", |args| {
        let s = ops::to_str(&arg(args, 0))?;
        let n = arg(args, 1).as_int()?.max(0) as usize;
        let len = s.chars().count();
        if len >= n {
            let skip = (len - n) / 2;
            return Some(Value::from(
                s.chars().skip(skip).take(n).collect::<String>(),
            ));
        }
        let pad = pad_char(args);
        let total = n - len;
        let left_pad = total / 2;
        let mut out: String = std::iter::repeat_n(pad, left_pad).collect();
        out.push_str(&s);
        while out.chars().count() < n {
            out.push(pad);
        }
        Some(Value::from(out))
    }));
    // map(s, from, to): character mapping.
    interp.register_proc(ProcValue::native("map", |args| {
        let s = ops::to_str(&arg(args, 0))?;
        let from: Vec<char> = ops::to_str(&arg(args, 1))?.chars().collect();
        let to: Vec<char> = ops::to_str(&arg(args, 2))?.chars().collect();
        if from.len() != to.len() {
            return None;
        }
        Some(Value::from(
            s.chars()
                .map(|c| match from.iter().position(|f| *f == c) {
                    Some(i) => to[i],
                    None => c,
                })
                .collect::<String>(),
        ))
    }));
    // ord(s) / char(n).
    interp.register_proc(ProcValue::native("ord", |args| {
        let s = ops::to_str(&arg(args, 0))?;
        let mut chars = s.chars();
        let c = chars.next()?;
        if chars.next().is_some() {
            return None; // ord wants a 1-char string
        }
        Some(Value::from(c as i64))
    }));
    interp.register_proc(ProcValue::native("char", |args| {
        let n = arg(args, 0).as_int()?;
        let c = char::from_u32(u32::try_from(n).ok()?)?;
        Some(Value::from(c.to_string()))
    }));
}

/// The subject for a position-searching builtin: the explicit argument at
/// `idx` if supplied, else the innermost scanning environment (whose `&pos`
/// becomes the search origin).
fn scanning_subject(args: &[Value], idx: usize) -> (Option<std::sync::Arc<str>>, i64) {
    match args.get(idx) {
        Some(v) if !v.is_null() => (ops::to_str(v), 1),
        _ => match crate::rt::scan_top() {
            Some(frame) => (Some(frame.subject), frame.pos),
            None => (None, 1),
        },
    }
}

/// String-scanning primitives: `tab`, `move`, `pos`, `subject` — only
/// meaningful inside `s ? expr`.
fn install_scanning(interp: &Interp) {
    // tab(i): set &pos to i and return the substring between the old and
    // new positions; fails outside a scan or out of range.
    interp.register_proc(ProcValue::native("tab", |args| {
        let target = match ops::to_num(&arg(args, 0))? {
            ops::Num::Int(i) => i,
            ops::Num::Big(b) => b.to_i64()?,
            ops::Num::Real(r) => r as i64,
        };
        let frame = crate::rt::scan_top()?;
        let len = frame.subject.chars().count() as i64;
        // Icon's nonpositive position spec: 0 is the end, -1 one before it.
        let target = if target <= 0 {
            len + 1 + target
        } else {
            target
        };
        if !crate::rt::scan_set_pos(target) {
            return None;
        }
        let (lo, hi) = if frame.pos <= target {
            (frame.pos, target)
        } else {
            (target, frame.pos)
        };
        let piece: String = frame
            .subject
            .chars()
            .skip(lo as usize - 1)
            .take((hi - lo) as usize)
            .collect();
        Some(Value::from(piece))
    }));
    // move(n): tab(&pos + n).
    interp.register_proc(ProcValue::native("move", |args| {
        let n = arg(args, 0).as_int()?;
        let frame = crate::rt::scan_top()?;
        let target = frame.pos + n;
        if !crate::rt::scan_set_pos(target) {
            return None;
        }
        let (lo, hi) = if frame.pos <= target {
            (frame.pos, target)
        } else {
            (target, frame.pos)
        };
        let piece: String = frame
            .subject
            .chars()
            .skip(lo as usize - 1)
            .take((hi - lo) as usize)
            .collect();
        Some(Value::from(piece))
    }));
    // pos(): the current &pos; subject(): the current &subject.
    interp.register_proc(ProcValue::native("pos", |_args| {
        crate::rt::scan_top().map(|f| Value::from(f.pos))
    }));
    interp.register_proc(ProcValue::native("subject", |_args| {
        crate::rt::scan_top().map(|f| Value::Str(f.subject))
    }));
}

/// Sequence helpers.
fn install_sequences(interp: &Interp) {
    // seq(i, step): the unbounded arithmetic sequence i, i+step, ...
    // (compose with limitation: seq(1) \ 10).
    interp.register_proc(ProcValue::new("seq", |args| {
        let start = arg(&args, 0).as_int().unwrap_or(1);
        let step = arg(&args, 1).as_int().unwrap_or(1);
        if step == 0 {
            return Box::new(gde::comb::fail()) as gde::BoxGen;
        }
        Box::new(gde::comb::to_range(
            start,
            if step > 0 { i64::MAX } else { i64::MIN },
            step,
        ))
    }));
    // sort(L): a sorted copy of a list of scalars.
    interp.register_proc(ProcValue::native("sort", |args| {
        let list = arg(args, 0);
        let items = list.as_list()?.lock().clone();
        let mut sorted = items;
        sorted.sort_by(|a, b| {
            gde::ops::num_cmp(a, b)
                .or_else(|| {
                    let (x, y) = (gde::ops::to_str(a)?, gde::ops::to_str(b)?);
                    Some(x.cmp(&y))
                })
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        Some(Value::list(sorted))
    }));
    // key(T): generate the keys of a table.
    interp.register_proc(ProcValue::new("key", |args| {
        let keys: Vec<Value> = match arg(&args, 0).deref() {
            Value::Table(t) => t.lock().keys().collect(),
            _ => Vec::new(),
        };
        Box::new(gde::comb::values(keys))
    }));
}

fn image_for_write(v: &Value) -> String {
    let v = v.deref();
    match v.as_str() {
        Some(s) => s.to_string(),
        None => format!("{v:?}"),
    }
}
