//! Goal-directed operators over [`Value`]s.
//!
//! Operations return `Option<Value>`: `None` means the operation *fails* in
//! the goal-directed sense (which, composed through the product combinator,
//! prunes that branch of the search). Two Icon-isms matter here:
//!
//! * **Coercion** — strings are converted to numbers where a number is
//!   required (`"5" + 1` is `6`), and machine integers promote to arbitrary
//!   precision on overflow ("arbitrary precision arithmetic ... is implicit
//!   in Unicon", Sec. VII).
//! * **Comparisons produce their right operand** — `4 < 5` *succeeds
//!   producing 5*, `5 < 4` fails. This is what lets comparisons chain and
//!   filter inside generator products, e.g. `1 <= x <= 10`.

use crate::value::Value;
use bigint::BigInt;
use std::cmp::Ordering;
use std::fmt::Write as _;
use std::sync::Arc;

/// A numeric view of a value after coercion.
#[derive(Clone, Debug)]
pub enum Num {
    Int(i64),
    Big(BigInt),
    Real(f64),
}

/// Coerce a value to a number: integers and reals pass through, strings are
/// parsed (integer first, then big integer, then real). Fails (`None`) for
/// non-numeric values.
pub fn to_num(v: &Value) -> Option<Num> {
    match v.deref() {
        Value::Int(i) => Some(Num::Int(i)),
        Value::Big(b) => Some(Num::Big((*b).clone())),
        Value::Real(r) => Some(Num::Real(r)),
        s => {
            let s = s.as_str()?.trim();
            if let Ok(i) = s.parse::<i64>() {
                Some(Num::Int(i))
            } else if let Ok(b) = BigInt::from_str_radix(s, 10) {
                Some(Num::Big(b))
            } else if let Ok(r) = s.parse::<f64>() {
                Some(Num::Real(r))
            } else {
                None
            }
        }
    }
}

fn to_big(n: &Num) -> BigInt {
    match n {
        Num::Int(i) => BigInt::from(*i),
        Num::Big(b) => b.clone(),
        Num::Real(r) => BigInt::from(*r as i64),
    }
}

fn to_real(n: &Num) -> f64 {
    match n {
        Num::Int(i) => *i as f64,
        Num::Big(b) => b.to_f64(),
        Num::Real(r) => *r,
    }
}

fn is_real(n: &Num) -> bool {
    matches!(n, Num::Real(_))
}

macro_rules! arith {
    ($name:ident, $checked:ident, $bigop:tt, $realop:tt) => {
        /// Arithmetic with big-integer promotion and string coercion;
        /// fails on non-numeric operands.
        pub fn $name(a: &Value, b: &Value) -> Option<Value> {
            let (x, y) = (to_num(a)?, to_num(b)?);
            if is_real(&x) || is_real(&y) {
                return Some(Value::Real(to_real(&x) $realop to_real(&y)));
            }
            if let (Num::Int(i), Num::Int(j)) = (&x, &y) {
                if let Some(r) = i.$checked(*j) {
                    return Some(Value::Int(r));
                }
            }
            Some(Value::big(&to_big(&x) $bigop &to_big(&y)))
        }
    };
}

arith!(add, checked_add, +, +);
arith!(sub, checked_sub, -, -);
arith!(mul, checked_mul, *, *);

/// Division. Integer operands use truncated integer division (failing on
/// division by zero); any real operand gives real division.
pub fn div(a: &Value, b: &Value) -> Option<Value> {
    let (x, y) = (to_num(a)?, to_num(b)?);
    if is_real(&x) || is_real(&y) {
        let d = to_real(&y);
        if d == 0.0 {
            return None;
        }
        return Some(Value::Real(to_real(&x) / d));
    }
    if let (Num::Int(i), Num::Int(j)) = (&x, &y) {
        if *j == 0 {
            return None;
        }
        if let Some(r) = i.checked_div(*j) {
            return Some(Value::Int(r));
        }
    }
    let d = to_big(&y);
    if d.is_zero() {
        return None;
    }
    Some(Value::big(&to_big(&x) / &d))
}

/// Remainder (`%`), truncated like Rust's; fails on zero divisor.
pub fn rem(a: &Value, b: &Value) -> Option<Value> {
    let (x, y) = (to_num(a)?, to_num(b)?);
    if is_real(&x) || is_real(&y) {
        let d = to_real(&y);
        if d == 0.0 {
            return None;
        }
        return Some(Value::Real(to_real(&x) % d));
    }
    if let (Num::Int(i), Num::Int(j)) = (&x, &y) {
        if *j == 0 {
            return None;
        }
        if let Some(r) = i.checked_rem(*j) {
            return Some(Value::Int(r));
        }
    }
    let d = to_big(&y);
    if d.is_zero() {
        return None;
    }
    Some(Value::big(&to_big(&x) % &d))
}

/// Exponentiation (`^`); negative integer exponents give reals.
pub fn pow(a: &Value, b: &Value) -> Option<Value> {
    let (x, y) = (to_num(a)?, to_num(b)?);
    match (&x, &y) {
        (_, Num::Int(e)) if *e >= 0 && !is_real(&x) => {
            Some(Value::big(big_pow(&to_big(&x), *e as u64)))
        }
        _ => Some(Value::Real(to_real(&x).powf(to_real(&y)))),
    }
}

fn big_pow(base: &BigInt, exp: u64) -> BigInt {
    let mut acc = BigInt::one();
    let mut b = base.clone();
    let mut e = exp;
    while e > 0 {
        if e & 1 == 1 {
            acc = &acc * &b;
        }
        e >>= 1;
        if e > 0 {
            b = &b * &b;
        }
    }
    acc
}

/// Numeric negation.
pub fn neg(a: &Value) -> Option<Value> {
    match to_num(a)? {
        Num::Int(i) => i
            .checked_neg()
            .map(Value::Int)
            .or_else(|| Some(Value::big(-BigInt::from(i)))),
        Num::Big(b) => Some(Value::big(-b)),
        Num::Real(r) => Some(Value::Real(-r)),
    }
}

/// Numeric three-way comparison with coercion.
pub fn num_cmp(a: &Value, b: &Value) -> Option<Ordering> {
    let (x, y) = (to_num(a)?, to_num(b)?);
    if is_real(&x) || is_real(&y) {
        to_real(&x).partial_cmp(&to_real(&y))
    } else {
        Some(to_big(&x).cmp(&to_big(&y)))
    }
}

macro_rules! cmp_op {
    ($name:ident, $($ord:pat_param)|+) => {
        /// Goal-directed numeric comparison: succeeds *producing the right
        /// operand* or fails.
        pub fn $name(a: &Value, b: &Value) -> Option<Value> {
            match num_cmp(a, b)? {
                $($ord)|+ => Some(b.deref()),
                _ => None,
            }
        }
    };
}

cmp_op!(lt, Ordering::Less);
cmp_op!(le, Ordering::Less | Ordering::Equal);
cmp_op!(gt, Ordering::Greater);
cmp_op!(ge, Ordering::Greater | Ordering::Equal);
cmp_op!(num_eq, Ordering::Equal);

/// Goal-directed numeric inequality (`~=`).
pub fn num_ne(a: &Value, b: &Value) -> Option<Value> {
    match num_cmp(a, b)? {
        Ordering::Equal => None,
        _ => Some(b.deref()),
    }
}

/// A stack-first scratch buffer for numeric→string coercion: 40 bytes
/// inline (room for any `i64` and the shortest-round-trip image of any
/// `f64` that fits it), spilling to a heap `String` only when a value's
/// image genuinely overflows (full decimal expansions of huge reals,
/// big integers). This is what lets [`to_text`], the lexical
/// comparisons, and [`concat`] coerce numbers without allocating on the
/// hot path, and where [`concat`] joins its two texts.
pub struct NumBuf {
    bytes: [u8; 40],
    len: usize,
    spill: Option<String>,
}

impl Default for NumBuf {
    fn default() -> Self {
        NumBuf::new()
    }
}

impl NumBuf {
    pub fn new() -> NumBuf {
        NumBuf {
            bytes: [0; 40],
            len: 0,
            spill: None,
        }
    }

    pub fn as_str(&self) -> &str {
        match &self.spill {
            Some(s) => s,
            None => std::str::from_utf8(&self.bytes[..self.len]).expect("NumBuf holds UTF-8"),
        }
    }

    /// True iff the image stayed in the stack buffer (no allocation).
    fn on_stack(&self) -> bool {
        self.spill.is_none()
    }
}

impl std::fmt::Write for NumBuf {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        if let Some(sp) = &mut self.spill {
            sp.push_str(s);
        } else if self.len + s.len() <= self.bytes.len() {
            self.bytes[self.len..self.len + s.len()].copy_from_slice(s.as_bytes());
            self.len += s.len();
        } else {
            let mut sp = String::with_capacity(self.len + s.len());
            sp.push_str(std::str::from_utf8(&self.bytes[..self.len]).expect("UTF-8"));
            sp.push_str(s);
            self.spill = Some(sp);
        }
        Ok(())
    }
}

/// Borrowed string coercion: string forms hand back their own text,
/// numbers format into the caller's [`NumBuf`]. No allocation unless the
/// image spills (see [`NumBuf`]). Fails for non-scalar values. Reified
/// variables are *not* dereferenced here (a borrowed result cannot
/// outlive a temporary) — callers deref first.
pub fn to_text<'a>(v: &'a Value, buf: &'a mut NumBuf) -> Option<&'a str> {
    match v {
        Value::Int(i) => {
            write!(buf, "{i}").ok()?;
            obs_on!(crate::obs_hot::coerce_cached().inc());
            Some(buf.as_str())
        }
        Value::Real(r) => {
            format_real_into(*r, buf);
            if buf.on_stack() {
                obs_on!(crate::obs_hot::coerce_cached().inc());
            }
            Some(buf.as_str())
        }
        Value::Big(b) => {
            write!(buf, "{b}").ok()?;
            Some(buf.as_str())
        }
        s => s.as_str(),
    }
}

/// Dereference a reified variable into `slot` so its value can be
/// borrowed from; pass non-refs through untouched.
fn deref_into<'a>(v: &'a Value, slot: &'a mut Option<Value>) -> &'a Value {
    match v {
        Value::Ref(_) => slot.insert(v.deref()),
        other => other,
    }
}

/// The small-integer images (`"0"`..`"255"`), made once: table-key
/// coercions and `word=count` formatting hit these constantly, so they
/// share one allocation each instead of making a fresh one.
fn small_int_image(i: i64) -> Option<&'static Arc<str>> {
    use std::sync::OnceLock;
    static SMALL: OnceLock<Vec<Arc<str>>> = OnceLock::new();
    let table = SMALL.get_or_init(|| (0..=255).map(|n: i64| Arc::from(n.to_string())).collect());
    table.get(usize::try_from(i).ok()?)
}

/// Coerce to a string (Icon's implicit string conversion).
pub fn to_str(v: &Value) -> Option<Arc<str>> {
    match v.deref() {
        Value::Int(i) => Some(int_arc(i)),
        Value::Big(b) => Some(Arc::from(b.to_string().as_str())),
        Value::Real(r) => {
            let mut buf = NumBuf::new();
            format_real_into(r, &mut buf);
            if buf.on_stack() {
                obs_on!(crate::obs_hot::coerce_cached().inc());
            }
            Some(Arc::from(buf.as_str()))
        }
        Value::Str(s) => Some(s),
        s => s.shared_text(),
    }
}

/// An integer's string image as a shared allocation: small ints replay
/// their cached image (zero allocation), larger ones format
/// on the stack and take a single `Arc` copy (down from the old
/// `String` + `Arc` pair).
fn int_arc(i: i64) -> Arc<str> {
    if let Some(image) = small_int_image(i) {
        obs_on!(crate::obs_hot::coerce_cached().inc());
        return image.clone();
    }
    let mut buf = NumBuf::new();
    let _ = write!(buf, "{i}");
    Arc::from(buf.as_str())
}

/// Icon's image of a real: integral finite values show one decimal
/// (`3.0`), everything else the shortest round-trip form.
fn format_real_into(r: f64, buf: &mut NumBuf) {
    if r == r.trunc() && r.is_finite() && r.abs() < 1e15 {
        let _ = write!(buf, "{r:.1}");
    } else {
        let _ = write!(buf, "{r}");
    }
}

/// String concatenation (`||`) with coercion: a fresh immutable owned
/// string, as concatenating host strings gives in the paper's runtime.
/// Both operands are dereferenced and coerced with [`to_text`], and the
/// two texts are joined in a stack [`NumBuf`], so a result that fits it
/// (every `word=count` line) costs one heap allocation, its `Arc<str>`.
/// An owned result needs no promotion when it is stored.
pub fn concat(a: &Value, b: &Value) -> Option<Value> {
    let (mut da, mut db) = (None, None);
    let a = deref_into(a, &mut da);
    let b = deref_into(b, &mut db);
    let (mut abuf, mut bbuf) = (NumBuf::new(), NumBuf::new());
    let x = to_text(a, &mut abuf)?;
    let y = to_text(b, &mut bbuf)?;
    let mut joined = NumBuf::new();
    joined.write_str(x).ok()?;
    joined.write_str(y).ok()?;
    Some(Value::str(joined.as_str()))
}

/// Lexical three-way comparison over coerced texts, allocation-free for
/// every scalar whose image fits the stack buffers.
fn text_cmp(a: &Value, b: &Value) -> Option<Ordering> {
    let (mut da, mut db) = (None, None);
    let a = deref_into(a, &mut da);
    let b = deref_into(b, &mut db);
    let (mut abuf, mut bbuf) = (NumBuf::new(), NumBuf::new());
    let x = to_text(a, &mut abuf)?;
    let y = to_text(b, &mut bbuf)?;
    Some(x.cmp(y))
}

macro_rules! str_cmp_op {
    ($name:ident, $($ord:pat_param)|+) => {
        /// Goal-directed lexical comparison: succeeds producing the right
        /// operand or fails.
        pub fn $name(a: &Value, b: &Value) -> Option<Value> {
            match text_cmp(a, b)? {
                $($ord)|+ => Some(b.deref()),
                _ => None,
            }
        }
    };
}

str_cmp_op!(str_lt, Ordering::Less);
str_cmp_op!(str_le, Ordering::Less | Ordering::Equal);
str_cmp_op!(str_gt, Ordering::Greater);
str_cmp_op!(str_ge, Ordering::Greater | Ordering::Equal);
str_cmp_op!(str_eq, Ordering::Equal);

/// Goal-directed lexical inequality.
pub fn str_ne(a: &Value, b: &Value) -> Option<Value> {
    match text_cmp(a, b)? {
        Ordering::Equal => None,
        _ => Some(b.deref()),
    }
}

/// Value equivalence `===`: succeeds producing the right operand.
pub fn equiv(a: &Value, b: &Value) -> Option<Value> {
    if a.equiv(b) {
        Some(b.deref())
    } else {
        None
    }
}

/// Subscript `x[i]` with Icon's 1-based, negative-from-end indexing for
/// strings and lists, and key lookup (with default) for tables, which
/// probes with `i` in place ([`crate::TableData::lookup`]: a read never
/// promotes a borrowed word).
///
/// String subscripts are byte-indexed: the old per-call `Vec<char>`
/// collect is gone. ASCII text (the hot case) resolves the character in
/// O(1); other text takes a single `char_indices` walk with early exit
/// at the target. Negative and zero indices need the character count —
/// replayed from a borrowed window's cache or counted with the ASCII
/// fast path. The result is a *window into the subscripted value's own
/// allocation* (its line buffer or owned text) — no
/// allocation on any string path.
pub fn index(x: &Value, i: &Value) -> Option<Value> {
    match x.deref() {
        Value::List(l) => {
            let l = l.lock();
            let idx = icon_index(i, l.len())?;
            Some(l[idx].clone())
        }
        Value::Table(t) => {
            let t = t.lock();
            let hit = t.lookup(i)?;
            Some(hit.unwrap_or(&t.default).clone())
        }
        sv => {
            let text = sv.as_str()?;
            let raw = raw_icon_index(i)?;
            let idx = if raw > 0 {
                (raw - 1) as usize
            } else {
                let adj = sv.char_len()? as i64 + raw - 1;
                if adj < 0 {
                    return None;
                }
                adj as usize
            };
            let (bs, be) = char_window(text, idx)?;
            sv.subwindow(bs, be)
        }
    }
}

/// Assign `x[i] := v` for lists and tables; fails on other types or
/// out-of-range indices. A table promotes `i` only when it inserts it
/// ([`crate::TableData::store`]).
pub fn index_assign(x: &Value, i: &Value, v: Value) -> Option<Value> {
    match x.deref() {
        Value::List(l) => {
            let mut l = l.lock();
            let len = l.len();
            let idx = icon_index(i, len)?;
            l[idx] = v.clone();
            Some(v)
        }
        Value::Table(t) => {
            t.lock().store(i, v.clone())?;
            Some(v)
        }
        _ => None,
    }
}

/// The byte window of the `idx`-th (0-based) character of `text`:
/// all-ASCII text resolves in O(1), otherwise one `char_indices` walk
/// stopping at the target. `None` when `idx` is past the end.
fn char_window(text: &str, idx: usize) -> Option<(usize, usize)> {
    if text.is_ascii() {
        if idx < text.len() {
            Some((idx, idx + 1))
        } else {
            None
        }
    } else {
        let (start, c) = text.char_indices().nth(idx)?;
        Some((start, start + c.len_utf8()))
    }
}

/// The raw Icon subscript value (1-based; 0 or negative count from the
/// end in Unicon style), before length adjustment.
fn raw_icon_index(i: &Value) -> Option<i64> {
    match to_num(i)? {
        Num::Int(v) => Some(v),
        Num::Big(b) => b.to_i64(),
        Num::Real(r) => Some(r as i64),
    }
}

/// Convert an Icon subscript to a 0-based offset, failing when out of
/// range.
fn icon_index(i: &Value, len: usize) -> Option<usize> {
    let raw = raw_icon_index(i)?;
    let idx = if raw > 0 {
        raw - 1
    } else {
        len as i64 + raw - 1
    };
    if idx >= 0 && (idx as usize) < len {
        Some(idx as usize)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn i(v: i64) -> Value {
        Value::from(v)
    }
    fn s(v: &str) -> Value {
        Value::str(v)
    }

    #[test]
    fn add_with_coercion() {
        assert_eq!(add(&i(2), &i(3)), Some(i(5)));
        assert_eq!(add(&s("5"), &i(1)), Some(i(6)));
        assert_eq!(add(&i(1), &Value::from(0.5)), Some(Value::from(1.5)));
        assert_eq!(add(&s("x"), &i(1)), None);
    }

    #[test]
    fn overflow_promotes_to_big() {
        let big = add(&i(i64::MAX), &i(1)).unwrap();
        assert!(matches!(big, Value::Big(_)));
        assert_eq!(big.to_string(), "9223372036854775808");
        let prod = mul(&i(i64::MAX), &i(i64::MAX)).unwrap();
        assert_eq!(prod.to_string(), "85070591730234615847396907784232501249");
    }

    #[test]
    fn big_arithmetic_roundtrips_down() {
        // Big - Big that fits in i64 normalizes back to Int.
        let b = add(&i(i64::MAX), &i(1)).unwrap();
        let back = sub(&b, &i(1)).unwrap();
        assert_eq!(back.as_int(), Some(i64::MAX));
    }

    #[test]
    fn division_semantics() {
        assert_eq!(div(&i(7), &i(2)), Some(i(3)));
        assert_eq!(div(&i(-7), &i(2)), Some(i(-3)));
        assert_eq!(div(&i(7), &i(0)), None);
        assert_eq!(div(&i(7), &Value::from(2.0)), Some(Value::from(3.5)));
        assert_eq!(rem(&i(7), &i(2)), Some(i(1)));
        assert_eq!(rem(&i(7), &i(0)), None);
    }

    #[test]
    fn pow_semantics() {
        assert_eq!(pow(&i(2), &i(10)), Some(i(1024)));
        assert_eq!(
            pow(&i(2), &i(100)).unwrap().to_string(),
            "1267650600228229401496703205376"
        );
        assert_eq!(pow(&i(2), &i(-1)), Some(Value::from(0.5)));
    }

    #[test]
    fn neg_handles_min() {
        assert_eq!(neg(&i(5)), Some(i(-5)));
        let negmin = neg(&i(i64::MIN)).unwrap();
        assert_eq!(negmin.to_string(), "9223372036854775808");
    }

    #[test]
    fn comparisons_produce_right_operand() {
        assert_eq!(lt(&i(4), &i(5)), Some(i(5)));
        assert_eq!(lt(&i(5), &i(4)), None);
        assert_eq!(le(&i(5), &i(5)), Some(i(5)));
        assert_eq!(gt(&i(5), &i(4)), Some(i(4)));
        assert_eq!(ge(&i(4), &i(5)), None);
        assert_eq!(num_eq(&s("3"), &i(3)), Some(i(3)));
        assert_eq!(num_ne(&i(3), &i(3)), None);
        assert_eq!(num_ne(&i(3), &i(4)), Some(i(4)));
    }

    #[test]
    fn comparison_chains_like_icon() {
        // 1 <= x <= 10 for x=5: (1 <= 5) -> 5, then (5 <= 10) -> 10.
        let step1 = le(&i(1), &i(5)).unwrap();
        let step2 = le(&step1, &i(10));
        assert_eq!(step2, Some(i(10)));
    }

    #[test]
    fn mixed_big_comparison() {
        let b = add(&i(i64::MAX), &i(1)).unwrap();
        assert_eq!(num_cmp(&b, &i(5)), Some(Ordering::Greater));
        assert!(lt(&i(5), &b).is_some());
    }

    #[test]
    fn string_ops() {
        assert_eq!(str_lt(&s("abc"), &s("abd")), Some(s("abd")));
        assert_eq!(str_eq(&s("x"), &s("x")), Some(s("x")));
        assert_eq!(str_ne(&s("x"), &s("x")), None);
        // Numeric strings compare lexically under string ops.
        assert_eq!(str_gt(&s("9"), &s("10")), Some(s("10")));

        // `||` over every operand shape: each result is one owned string.
        use crate::var::Var;
        let line: Arc<str> = Arc::from("héllo wörld");
        let (hello, world) = (Value::slice(line.clone(), 0, 6), Value::slice(line, 7, 13));
        let second = |v: &Value| index(v, &i(2)).unwrap();
        let big = pow(&i(2), &i(70)).unwrap();
        let rows = [
            (s("ab"), s("cd"), "abcd"),
            (s(""), s("xy"), "xy"),
            (s("n="), i(5), "n=5"),
            (Value::slice(Arc::from("k"), 0, 1).promote(), i(255), "k255"),
            // Multi-byte windows, and subscripts of them (`v[1] || v[2]`).
            (hello.clone(), world.clone(), "héllowörld"),
            (index(&hello, &i(1)).unwrap(), second(&hello), "hé"),
            (second(&hello), second(&world), "éö"),
            (Value::Ref(Var::new(s("ref"))), s("!"), "ref!"),
            (s("x"), Value::Ref(Var::new(i(7))), "x7"),
            (i(-4), Value::from(2.5), "-42.5"),
            (s("r="), Value::from(3.0), "r=3.0"),
            (big, s("!"), "1180591620717411303424!"),
        ];
        for (a, b, want) in rows {
            let got = concat(&a, &b).unwrap();
            assert!(matches!(got, Value::Str(_)), "{a:?} || {b:?} is {got:?}");
            assert_eq!(got.as_str(), Some(want), "{a:?} || {b:?}");
        }
        // A self-concat reads its one operand twice.
        assert_eq!(concat(&hello, &hello).unwrap().as_str(), Some("héllohéllo"));
        // Ints across and past the small-int range, and the extremes.
        for n in (0..=300).chain([-1, i64::MAX, i64::MIN]) {
            let got = concat(&s("k="), &i(n)).unwrap();
            assert_eq!(got.as_str(), Some(format!("k={n}").as_str()));
        }
        // A list has no string image.
        assert_eq!(concat(&Value::list(vec![]), &s("x")), None);
        assert_eq!(concat(&s("x"), &Value::list(vec![])), None);
        // A concatenation keys a table like the literal it spells.
        let table = Value::table();
        let Value::Table(t) = &table else {
            unreachable!()
        };
        let mut t = t.lock();
        t.store(&concat(&hello, &s("=")).unwrap(), i(1)).unwrap();
        t.store(&s("héllo="), i(2)).unwrap();
        assert_eq!(t.len(), 1, "the literal updates the stored concatenation");
        let probe = concat(&index(&hello, &i(1)).unwrap(), &s("éllo=")).unwrap();
        assert_eq!(t.lookup(&probe).flatten().and_then(Value::as_int), Some(2));
    }

    #[test]
    fn a_stored_concatenation_stays_owned() {
        // `w || "="` bound to a variable needs no promotion: it reads back
        // as the owned string it is.
        use crate::var::Var;
        let w = Value::slice(Arc::from("word here"), 0, 4);
        let var = Var::new(concat(&w, &s("=")).unwrap());
        assert!(matches!(var.get(), Value::Str(_)), "{:?}", var.get());
        var.set(concat(&w, &i(3)).unwrap());
        assert!(matches!(var.get(), Value::Str(_)), "{:?}", var.get());
        assert_eq!(var.get().as_str(), Some("word3"));
    }

    #[test]
    fn small_int_images_share_one_allocation() {
        let a = to_str(&i(42)).unwrap();
        let b = to_str(&i(42)).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "small-int images must share the cache");
        assert_eq!(a.as_ref(), "42");
        assert_eq!(to_str(&i(0)).unwrap().as_ref(), "0");
        assert_eq!(to_str(&i(255)).unwrap().as_ref(), "255");
        // Outside the cache: still correct, single allocation.
        assert_eq!(to_str(&i(256)).unwrap().as_ref(), "256");
        assert_eq!(
            to_str(&i(i64::MIN)).unwrap().as_ref(),
            "-9223372036854775808"
        );
    }

    #[test]
    fn to_text_borrows_without_allocating() {
        let mut buf = NumBuf::new();
        assert_eq!(to_text(&s("plain"), &mut buf), Some("plain"));
        let mut buf = NumBuf::new();
        assert_eq!(to_text(&i(-17), &mut buf), Some("-17"));
        let mut buf = NumBuf::new();
        assert_eq!(to_text(&Value::from(2.5), &mut buf), Some("2.5"));
        let mut buf = NumBuf::new();
        assert_eq!(to_text(&Value::from(3.0), &mut buf), Some("3.0"));
        // A huge real's full decimal expansion spills to the heap but
        // stays correct.
        let mut buf = NumBuf::new();
        let huge = Value::from(1e300);
        let long = to_text(&huge, &mut buf).unwrap();
        assert_eq!(long.len(), 301);
        assert!(long.starts_with('1'));
        let mut buf = NumBuf::new();
        assert_eq!(to_text(&Value::list(vec![]), &mut buf), None);
    }

    #[test]
    fn str_cmp_coerces_through_refs_and_numbers() {
        use crate::var::Var;
        let r = Value::Ref(Var::new(s("abc")));
        assert_eq!(str_lt(&r, &s("abd")), Some(s("abd")));
        assert_eq!(str_eq(&i(12), &s("12")), Some(s("12")));
        assert_eq!(str_lt(&i(12), &i(3)), Some(i(3))); // lexical: "12" < "3"
    }

    #[test]
    fn index_returns_windows_into_the_owner() {
        let line: Arc<str> = Arc::from("alpha beta");
        let word = Value::slice(line.clone(), 0, 5);
        let pins = Arc::strong_count(&line);
        let c = index(&word, &i(2)).unwrap();
        assert_eq!(c.as_str(), Some("l"));
        assert!(
            c.is_borrowed() && Arc::strong_count(&line) == pins + 1,
            "subscript must window the owner"
        );
        // Concat-result subscripts window the owned result.
        let built = concat(&s("wi"), &s("de")).unwrap();
        assert_eq!(index(&built, &i(4)).unwrap().as_str(), Some("e"));
        // A promoted word's subscripts window its own allocation.
        let promoted = Value::slice(line, 6, 10).promote();
        let c = index(&promoted, &i(3)).unwrap();
        assert!(c.is_borrowed() && c.as_str() == Some("t"), "{c:?}");
    }

    #[test]
    fn index_multibyte_and_negative() {
        let v = s("héllo");
        assert_eq!(index(&v, &i(1)).unwrap().as_str(), Some("h"));
        assert_eq!(index(&v, &i(2)).unwrap().as_str(), Some("é"));
        assert_eq!(index(&v, &i(5)).unwrap().as_str(), Some("o"));
        assert_eq!(index(&v, &i(6)), None);
        assert_eq!(index(&v, &i(0)).unwrap().as_str(), Some("o"));
        assert_eq!(index(&v, &i(-1)).unwrap().as_str(), Some("l"));
        assert_eq!(index(&v, &i(-5)), None);
        // ASCII fast path hits the same answers.
        let a = s("hello");
        assert_eq!(index(&a, &i(-1)).unwrap().as_str(), Some("l"));
        assert_eq!(index(&a, &i(0)).unwrap().as_str(), Some("o"));
    }

    #[test]
    fn real_string_image() {
        assert_eq!(to_str(&Value::from(3.0)).unwrap().as_ref(), "3.0");
        assert_eq!(to_str(&Value::from(3.25)).unwrap().as_ref(), "3.25");
    }

    #[test]
    fn equiv_op() {
        assert_eq!(equiv(&i(3), &i(3)), Some(i(3)));
        assert_eq!(equiv(&i(3), &s("3")), None);
    }

    #[test]
    fn indexing_strings_and_lists() {
        let lst = Value::list(vec![i(10), i(20), i(30)]);
        assert_eq!(index(&lst, &i(1)), Some(i(10)));
        assert_eq!(index(&lst, &i(3)), Some(i(30)));
        assert_eq!(index(&lst, &i(0)), Some(i(30))); // 0 = from end
        assert_eq!(index(&lst, &i(-1)), Some(i(20)));
        assert_eq!(index(&lst, &i(4)), None);
        assert_eq!(index(&s("abc"), &i(2)), Some(s("b")));
        assert_eq!(index(&i(5), &i(1)), None);
    }

    #[test]
    fn index_assignment() {
        let lst = Value::list(vec![i(1), i(2)]);
        assert_eq!(index_assign(&lst, &i(2), i(99)), Some(i(99)));
        assert_eq!(index(&lst, &i(2)), Some(i(99)));
        assert_eq!(index_assign(&lst, &i(5), i(0)), None);

        let t = Value::table();
        assert_eq!(index(&t, &s("k")), Some(Value::Null)); // default
        index_assign(&t, &s("k"), i(7)).unwrap();
        assert_eq!(index(&t, &s("k")), Some(i(7)));
        assert_eq!(t.size(), Some(1));
    }

    #[test]
    fn to_num_parses_big_strings() {
        let v = s("123456789012345678901234567890");
        match to_num(&v).unwrap() {
            Num::Big(b) => assert_eq!(b.to_string(), "123456789012345678901234567890"),
            other => panic!("expected Big, got {other:?}"),
        }
        assert!(to_num(&s("3.5")).is_some());
        assert!(to_num(&s("")).is_none());
        assert!(to_num(&Value::list(vec![])).is_none());
    }
}
