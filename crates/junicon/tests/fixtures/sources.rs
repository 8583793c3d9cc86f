//! Junicon sources of the executed fixtures: `emit_fixture.rs` snapshots
//! their emission, `emitted_exec.rs` compiles it and runs it against the
//! interpreter on the same text.

/// The paper's Fig. 5 translation example.
pub const SPAWNMAP_SRC: &str = "def spawnMap(f, chunk) { suspend ! (|> f(!chunk)); }";

/// Statement-level emission: loops, suspend inside a loop body, assignment,
/// and goal-directed comparison. Then a top-level section, each statement
/// an activation of its own: a `return` or `fail` ends that statement only,
/// so `b` is written and the loop runs (to its `break`).
pub const COUNTDOWN_SRC: &str = r#"
def countdown(n) { while n > 0 do { suspend n; n := n - 1; }; }
write("a");
return;
write("b");
fail;
local t := 0;
every i := countdown(5) do { if i < 3 then break; t := t + i; };
write("t=", t, " i=", i);
"#;

/// Every row of `junicon::prim`, standing alone (its own thunk) and as the
/// last link of a product over a generator operand (a thunk bound after the
/// generator's link); the three
/// zero-operand forms `g()`, `s::m()` and `[]`; deferred bodies that loop
/// and `break` inside an enclosing loop; and (`control`) the kernel
/// constructors the other fixtures do not reach.
pub const PRIMS_SRC: &str = r#"
def binops(a, b) {
    suspend (a + b) | (a - b) | (a * b) | (a / b) | (a % b) | (a ^ b)
        | (a < b) | (a <= b) | (a > b) | (a >= b) | (a = b) | (a ~= b) | (a || b)
        | (a << b) | (a <<= b) | (a >> b) | (a >>= b) | (a == b) | (a ~== b) | (a === b);
    suspend ((a to a) + b) | ((a to a) - b) | ((a to a) * b) | ((a to a) / b)
        | ((a to a) % b) | ((a to a) ^ b)
        | ((a to a) < b) | ((a to a) <= b) | ((a to a) > b) | ((a to a) >= b)
        | ((a to a) = b) | ((a to a) ~= b) | ((a to a) || b)
        | ((a to a) << b) | ((a to a) <<= b) | ((a to a) >> b) | ((a to a) >>= b)
        | ((a to a) == b) | ((a to a) ~== b) | ((a to a) === b);
}
def zero() { return 7; }
def shapes(n, s) {
    local l, t, c;
    suspend (-n) | (*s) | (-(n to n + 1)) | (*(s | "xy"));
    l := [];
    suspend *l;
    l := [n, 2];
    suspend l[1] | l[1 to 2];
    l[1] := 9;
    l[1 to 2] := l[2] + 1;
    suspend !l;
    suspend ![n, n + 1, n + 2];
    t := table(0);
    t.k := 5;
    suspend t.k;
    (t | t).k := t.k + 1;
    suspend (t | t).k;
    suspend s::size() | s::charAt(1) | (s | "xy")::size() | (s | "xy")::charAt(0 to 1);
    suspend zero();
    c := <> (n to n + 3);
    suspend @c;
    suspend (1 to 2) + @c;
    suspend @(^c);
}
def control(n, s) {
    local i, x, c;
    i := 0;
    until i >= n do { i := i + 1; if i = 2 then next; suspend i; };
    repeat { i := i - 1; if i < 1 then break; suspend -i; };
    suspend (1 to 10) \ n;
    suspend if not (n < 0) then "pos" else "neg";
    x := 1;
    suspend (x <- 5) & (x > 9);
    suspend x;
    suspend s ? { tab(3); &subject || &pos };
    c := |<> (x := x + n);
    suspend @c | x;
    suspend 12345678901234567890123 + n;
    if n > 3 then fail;
    return n & (n + 1);
}
def deferred(n) {
    local t, c, i;
    every i := 1 to n do {
        t := |> { local x; x := 0; every x := x + (1 to i); x };
        suspend !t;
        c := <> { break; i * 10 };
        suspend @c;
    };
}
"#;

/// Fig. 4 (`chunk` / `mapReduce`) and the two-pass frequency report, as
/// the benchmark's `mapreduce.jn` / `freqreport.jn` have them, over the
/// Fig. 3 readers.
pub const FIG4_SRC: &str = r#"
def readLines() { suspend !lines; }
def splitWords(line) { suspend ! line::split("\\s+"); }
def chunk(e) {
    local c;
    c := [];
    while put(c, @e) do {
        if *c >= chunkSize then { suspend c; c := []; };
    };
    if *c > 0 then { return c; };
}
def mapReduce(f, s, r, init) {
    local c, t, tasks;
    tasks := [];
    every c := chunk(s) do {
        t := |> { local x; x := init; every x := r(x, f(!c)); x };
        tasks::add(t);
    };
    suspend ! (! tasks);
}
def wordSize(w) { return *w; }
def sum(a, b) { return a + b; }
def freqReport() {
    local counts, w, n;
    counts := table(0);
    every w := splitWords(readLines()) do { counts[w] := counts[w] + 1; };
    every w := splitWords(readLines()) do {
        n := counts[w];
        if n > 0 then { counts[w] := 0; suspend w || "=" || n; };
    };
}
"#;

/// Classes (Sec. V.C): Fig. 4's `DataParallel` as the paper writes it, a
/// class whose methods call each other unqualified (`chunk(s)`) and read
/// the field `chunkSize`; a class whose method assigns a field and returns
/// `self`; and a class with fields only.
pub const CLASSES_SRC: &str = r#"
class DataParallel(chunkSize) {
    method chunk(e) {
        local c;
        c := [];
        while put(c, @e) do {
            if *c >= chunkSize then { suspend c; c := []; };
        };
        if *c > 0 then { return c; };
    }
    method mapReduce(f, s, r, init) {
        local c, t, tasks;
        tasks := [];
        every c := chunk(s) do {
            t := |> { local x; x := init; every x := r(x, f(!c)); x };
            tasks::add(t);
        };
        suspend ! (! tasks);
    }
}
class Counter(n) {
    method bump(k) { n := n + k; return self; }
    method total() { return n; }
}
class Pair(first, second) {}
def square(x) { return x * x; }
def sum(a, b) { return a + b; }
"#;
