//! Class-level embedding (Sec. V.C): goal-directed evaluation "can be
//! embedded at the method or expression level, as well as the class level
//! if desired". These tests exercise the Unicon class subset: constructors
//! with positional field initialization, methods bound to the instance,
//! field access and assignment from both embedded and host sides, and
//! generator methods.

use gde::Value;
use junicon::Interp;

fn ints(i: &Interp, src: &str) -> Vec<i64> {
    i.eval(src)
        .unwrap_or_else(|e| panic!("{src}: {e}"))
        .iter()
        .map(|v| v.as_int().unwrap())
        .collect()
}

#[test]
fn construct_and_read_fields() {
    let i = Interp::new();
    i.load(
        "class Point(x, y)\n\
           method dist2() { return x * x + y * y; }\n\
         end",
    )
    .unwrap();
    i.eval("p := Point(3, 4)").unwrap();
    assert_eq!(ints(&i, "p.x"), vec![3]);
    assert_eq!(ints(&i, "p.y"), vec![4]);
    assert_eq!(i.eval("type(p)").unwrap()[0].to_string(), "object");
}

#[test]
fn methods_see_and_mutate_fields() {
    let i = Interp::new();
    i.load(
        r#"
        class Counter(n) {
            method bump() { n := n + 1; return n; }
            method value() { return n; }
        }
        "#,
    )
    .unwrap();
    i.eval("c := Counter(10)").unwrap();
    assert_eq!(ints(&i, "c.bump()"), vec![11]);
    assert_eq!(ints(&i, "c.bump()"), vec![12]);
    assert_eq!(ints(&i, "c.value()"), vec![12]);
    // field state is visible through plain field access too
    assert_eq!(ints(&i, "c.n"), vec![12]);
}

#[test]
fn field_assignment_from_embedded_code() {
    let i = Interp::new();
    i.load("class Box(v)\n method get() { return v; }\n end")
        .unwrap();
    i.eval("b := Box(1)").unwrap();
    i.eval("b.v := 99").unwrap();
    assert_eq!(ints(&i, "b.get()"), vec![99]);
    // assigning an undeclared field fails rather than creating one
    assert!(i.eval("b.nosuch := 3").unwrap().is_empty());
}

#[test]
fn methods_can_be_generators() {
    let i = Interp::new();
    i.load(
        r#"
        class Range(lo, hi) {
            method each() { suspend lo to hi; }
            method evens() { suspend (lo to hi) % 2 = 0 & (lo to hi); }
        }
        "#,
    )
    .unwrap();
    i.eval("r := Range(2, 5)").unwrap();
    assert_eq!(ints(&i, "r.each()"), vec![2, 3, 4, 5]);
    // generator method used inside a larger goal-directed expression
    assert_eq!(ints(&i, "r.each() * 10"), vec![20, 30, 40, 50]);
}

#[test]
fn instances_are_independent() {
    let i = Interp::new();
    i.load("class Acc(total)\n method add(v) { total := total + v; return total; }\n end")
        .unwrap();
    i.eval("a := Acc(0)").unwrap();
    i.eval("b := Acc(100)").unwrap();
    assert_eq!(ints(&i, "a.add(5)"), vec![5]);
    assert_eq!(ints(&i, "b.add(5)"), vec![105]);
    assert_eq!(ints(&i, "a.add(1)"), vec![6]); // unaffected by b
}

#[test]
fn self_is_available_in_methods() {
    let i = Interp::new();
    i.load(
        r#"
        class Node(label) {
            method me() { return self; }
            method named() { return self.label; }
        }
        "#,
    )
    .unwrap();
    i.eval("n := Node(\"x\")").unwrap();
    assert_eq!(i.eval("n.named()").unwrap()[0].to_string(), "x");
    // method returning self gives back the same object (=== identity)
    assert_eq!(i.eval("n.me() === n").unwrap().len(), 1);
}

#[test]
fn missing_constructor_args_are_null() {
    let i = Interp::new();
    i.load("class Pair(a, b)\n method hasB() { if b === &null then fail; return 1; }\n end")
        .unwrap();
    i.eval("p := Pair(1)").unwrap();
    assert!(i.eval("p.hasB()").unwrap().is_empty());
}

#[test]
fn objects_cross_the_host_boundary() {
    // Host code reads fields and calls methods on an embedded object.
    let i = Interp::new();
    i.load("class Greeter(who)\n method greet() { return \"hi \" || who; }\n end")
        .unwrap();
    let obj = i.eval("Greeter(\"world\")").unwrap().remove(0);
    match obj.deref() {
        Value::Object(o) => {
            assert_eq!(o.class_name.as_ref(), "Greeter");
            assert_eq!(o.get_field("who").unwrap().to_string(), "world");
            let Some(Value::Proc(m)) = o.get_field("greet") else {
                panic!("greet is a bound method");
            };
            let out = gde::GenExt::next_value(&mut m.invoke(vec![])).unwrap();
            assert_eq!(out.to_string(), "hi world");
        }
        other => panic!("expected object, got {other:?}"),
    }
}

#[test]
fn methods_and_pipes_compose() {
    // A generator method piped to another thread.
    let i = Interp::new();
    i.load("class Src(n)\n method vals() { suspend 1 to n; }\n end")
        .unwrap();
    i.eval("s := Src(4)").unwrap();
    assert_eq!(ints(&i, "! (|> s.vals())"), vec![1, 2, 3, 4]);
}

#[test]
fn self_and_methods_are_not_fields() {
    let i = Interp::new();
    i.load(
        "class Point(x, y) {\n\
             method me() { return self; }\n\
         }",
    )
    .unwrap();
    i.eval("p := Point(3, 4)").unwrap();
    // `self` is neither read nor written as a field, and a method is not
    // a field to assign.
    assert!(i.eval("p.self").unwrap().is_empty());
    assert!(i.eval("p.self := 7").unwrap().is_empty());
    assert!(i.eval("p.me := 7").unwrap().is_empty());
    assert_eq!(i.eval("p.me() === p").unwrap().len(), 1);
    // `o.m` still reads the bound method.
    assert_eq!(i.eval("type(p.me)").unwrap()[0].to_string(), "procedure");
    assert_eq!(i.eval("(p.me)() === p").unwrap().len(), 1);
    // Declared fields stay writable.
    assert_eq!(ints(&i, "p.x := 5"), vec![5]);
    assert_eq!(ints(&i, "p.x"), vec![5]);
}
