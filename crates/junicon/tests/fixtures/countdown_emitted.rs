// Generated by junicon::emit — do not edit.
#![allow(unused, nonstandard_style, clippy::all)]

use gde::{env::Env, Value};
use junicon::rt::{self, Def, Slot::*};

pub fn proc_countdown() -> Def {
    Def::new("countdown", ["n"], 1, 1, 3, true, |env, tmps, flags| rt::body_root(vec![
        rt::while_do(
            rt::op2(gde::ops::gt, Cell(env.slot(0, 0)) /* n */, Const(Value::from(0i64))),
            Some(rt::stmt_seq(vec![
                rt::atom(Cell(env.slot(0, 0)) /* n */),
                rt::mute_once(rt::product(vec![
                    rt::bind(tmps[0].clone(), rt::op2(gde::ops::sub, Cell(env.slot(0, 0)) /* n */, Const(Value::from(1i64)))),
                    rt::set_var(env.slot(0, 0) /* n */, Cell(tmps[0].clone())),
                ])),
            ], vec![flags[0].clone(), flags[1].clone(), flags[2].clone()])),
            flags[1].clone(),
            flags[2].clone(),
            vec![flags[0].clone()],
        ),
    ], flags[0].clone()))
}

pub fn install(globals: &Env) {
    rt::install(globals, [proc_countdown()]);
}

pub fn toplevel(globals: &Env) {
    let env = globals.clone();
    rt::drive({
        let tmps = rt::tmps(2);
        let flags = rt::flags(1);
        rt::mute_once(rt::invoke(Cell(env.lookup_or_declare("write")), vec![Const(Value::str("a"))]))
    });
    rt::drive({
        let tmps = rt::tmps(2);
        let flags = rt::flags(1);
        rt::return_gen(None, flags[0].clone())
    });
    rt::drive({
        let tmps = rt::tmps(2);
        let flags = rt::flags(1);
        rt::mute_once(rt::invoke(Cell(env.lookup_or_declare("write")), vec![Const(Value::str("b"))]))
    });
    rt::drive({
        let tmps = rt::tmps(2);
        let flags = rt::flags(1);
        rt::flag_fail(flags[0].clone())
    });
    rt::drive({
        let tmps = rt::tmps(2);
        let flags = rt::flags(1);
        rt::mute_once(rt::seq(vec![
            rt::decl(env.declare("t", Value::Null), Some(rt::atom(Const(Value::from(0i64))))),
        ]))
    });
    rt::drive({
        let tmps = rt::tmps(2);
        let flags = rt::flags(3);
        rt::every_do(
            rt::product(vec![
                rt::bind(tmps[0].clone(), rt::invoke(Cell(env.lookup_or_declare("countdown")), vec![Const(Value::from(5i64))])),
                rt::set_var(env.lookup_or_declare("i"), Cell(tmps[0].clone())),
            ]),
            Some(rt::stmt_seq(vec![
                rt::if_gen(
                    rt::op2(gde::ops::lt, Cell(env.lookup_or_declare("i")), Const(Value::from(3i64))),
                    rt::flag_fail(flags[1].clone()),
                    None,
                ),
                rt::mute_once(rt::product(vec![
                    rt::bind(tmps[1].clone(), rt::op2(gde::ops::add, Cell(env.lookup_or_declare("t")), Cell(env.lookup_or_declare("i")))),
                    rt::set_var(env.lookup_or_declare("t"), Cell(tmps[1].clone())),
                ])),
            ], vec![flags[0].clone(), flags[1].clone(), flags[2].clone()])),
            flags[1].clone(),
            flags[2].clone(),
            vec![flags[0].clone()],
        )
    });
    rt::drive({
        let tmps = rt::tmps(2);
        let flags = rt::flags(1);
        rt::mute_once(rt::invoke(Cell(env.lookup_or_declare("write")), vec![Const(Value::str("t=")), Cell(env.lookup_or_declare("t")), Const(Value::str(" i=")), Cell(env.lookup_or_declare("i"))]))
    });
}
