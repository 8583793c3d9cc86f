// Generated by junicon::emit — do not edit.
#![allow(unused, nonstandard_style, clippy::all)]

use gde::{env::Env, Value};
use junicon::rt::{self, Def, Slot::*};

pub fn proc_binops() -> Def {
    Def::new("binops", ["a", "b"], 2, 20, 1, true, |env, tmps, flags| rt::body_root(vec![
        rt::alt(vec![
            rt::op2(gde::ops::add, Cell(env.slot(0, 0)) /* a */, Cell(env.slot(0, 1)) /* b */),
            rt::op2(gde::ops::sub, Cell(env.slot(0, 0)) /* a */, Cell(env.slot(0, 1)) /* b */),
            rt::op2(gde::ops::mul, Cell(env.slot(0, 0)) /* a */, Cell(env.slot(0, 1)) /* b */),
            rt::op2(gde::ops::div, Cell(env.slot(0, 0)) /* a */, Cell(env.slot(0, 1)) /* b */),
            rt::op2(gde::ops::rem, Cell(env.slot(0, 0)) /* a */, Cell(env.slot(0, 1)) /* b */),
            rt::op2(gde::ops::pow, Cell(env.slot(0, 0)) /* a */, Cell(env.slot(0, 1)) /* b */),
            rt::op2(gde::ops::lt, Cell(env.slot(0, 0)) /* a */, Cell(env.slot(0, 1)) /* b */),
            rt::op2(gde::ops::le, Cell(env.slot(0, 0)) /* a */, Cell(env.slot(0, 1)) /* b */),
            rt::op2(gde::ops::gt, Cell(env.slot(0, 0)) /* a */, Cell(env.slot(0, 1)) /* b */),
            rt::op2(gde::ops::ge, Cell(env.slot(0, 0)) /* a */, Cell(env.slot(0, 1)) /* b */),
            rt::op2(gde::ops::num_eq, Cell(env.slot(0, 0)) /* a */, Cell(env.slot(0, 1)) /* b */),
            rt::op2(gde::ops::num_ne, Cell(env.slot(0, 0)) /* a */, Cell(env.slot(0, 1)) /* b */),
            rt::op2(gde::ops::concat, Cell(env.slot(0, 0)) /* a */, Cell(env.slot(0, 1)) /* b */),
            rt::op2(gde::ops::str_lt, Cell(env.slot(0, 0)) /* a */, Cell(env.slot(0, 1)) /* b */),
            rt::op2(gde::ops::str_le, Cell(env.slot(0, 0)) /* a */, Cell(env.slot(0, 1)) /* b */),
            rt::op2(gde::ops::str_gt, Cell(env.slot(0, 0)) /* a */, Cell(env.slot(0, 1)) /* b */),
            rt::op2(gde::ops::str_ge, Cell(env.slot(0, 0)) /* a */, Cell(env.slot(0, 1)) /* b */),
            rt::op2(gde::ops::str_eq, Cell(env.slot(0, 0)) /* a */, Cell(env.slot(0, 1)) /* b */),
            rt::op2(gde::ops::str_ne, Cell(env.slot(0, 0)) /* a */, Cell(env.slot(0, 1)) /* b */),
            rt::op2(gde::ops::equiv, Cell(env.slot(0, 0)) /* a */, Cell(env.slot(0, 1)) /* b */),
        ]),
        rt::alt(vec![
            rt::product(vec![
                rt::bind(tmps[0].clone(), rt::to_range(Cell(env.slot(0, 0)) /* a */, Cell(env.slot(0, 0)) /* a */, Const(Value::from(1i64)))),
                rt::op2(gde::ops::add, Cell(tmps[0].clone()), Cell(env.slot(0, 1)) /* b */),
            ]),
            rt::product(vec![
                rt::bind(tmps[1].clone(), rt::to_range(Cell(env.slot(0, 0)) /* a */, Cell(env.slot(0, 0)) /* a */, Const(Value::from(1i64)))),
                rt::op2(gde::ops::sub, Cell(tmps[1].clone()), Cell(env.slot(0, 1)) /* b */),
            ]),
            rt::product(vec![
                rt::bind(tmps[2].clone(), rt::to_range(Cell(env.slot(0, 0)) /* a */, Cell(env.slot(0, 0)) /* a */, Const(Value::from(1i64)))),
                rt::op2(gde::ops::mul, Cell(tmps[2].clone()), Cell(env.slot(0, 1)) /* b */),
            ]),
            rt::product(vec![
                rt::bind(tmps[3].clone(), rt::to_range(Cell(env.slot(0, 0)) /* a */, Cell(env.slot(0, 0)) /* a */, Const(Value::from(1i64)))),
                rt::op2(gde::ops::div, Cell(tmps[3].clone()), Cell(env.slot(0, 1)) /* b */),
            ]),
            rt::product(vec![
                rt::bind(tmps[4].clone(), rt::to_range(Cell(env.slot(0, 0)) /* a */, Cell(env.slot(0, 0)) /* a */, Const(Value::from(1i64)))),
                rt::op2(gde::ops::rem, Cell(tmps[4].clone()), Cell(env.slot(0, 1)) /* b */),
            ]),
            rt::product(vec![
                rt::bind(tmps[5].clone(), rt::to_range(Cell(env.slot(0, 0)) /* a */, Cell(env.slot(0, 0)) /* a */, Const(Value::from(1i64)))),
                rt::op2(gde::ops::pow, Cell(tmps[5].clone()), Cell(env.slot(0, 1)) /* b */),
            ]),
            rt::product(vec![
                rt::bind(tmps[6].clone(), rt::to_range(Cell(env.slot(0, 0)) /* a */, Cell(env.slot(0, 0)) /* a */, Const(Value::from(1i64)))),
                rt::op2(gde::ops::lt, Cell(tmps[6].clone()), Cell(env.slot(0, 1)) /* b */),
            ]),
            rt::product(vec![
                rt::bind(tmps[7].clone(), rt::to_range(Cell(env.slot(0, 0)) /* a */, Cell(env.slot(0, 0)) /* a */, Const(Value::from(1i64)))),
                rt::op2(gde::ops::le, Cell(tmps[7].clone()), Cell(env.slot(0, 1)) /* b */),
            ]),
            rt::product(vec![
                rt::bind(tmps[8].clone(), rt::to_range(Cell(env.slot(0, 0)) /* a */, Cell(env.slot(0, 0)) /* a */, Const(Value::from(1i64)))),
                rt::op2(gde::ops::gt, Cell(tmps[8].clone()), Cell(env.slot(0, 1)) /* b */),
            ]),
            rt::product(vec![
                rt::bind(tmps[9].clone(), rt::to_range(Cell(env.slot(0, 0)) /* a */, Cell(env.slot(0, 0)) /* a */, Const(Value::from(1i64)))),
                rt::op2(gde::ops::ge, Cell(tmps[9].clone()), Cell(env.slot(0, 1)) /* b */),
            ]),
            rt::product(vec![
                rt::bind(tmps[10].clone(), rt::to_range(Cell(env.slot(0, 0)) /* a */, Cell(env.slot(0, 0)) /* a */, Const(Value::from(1i64)))),
                rt::op2(gde::ops::num_eq, Cell(tmps[10].clone()), Cell(env.slot(0, 1)) /* b */),
            ]),
            rt::product(vec![
                rt::bind(tmps[11].clone(), rt::to_range(Cell(env.slot(0, 0)) /* a */, Cell(env.slot(0, 0)) /* a */, Const(Value::from(1i64)))),
                rt::op2(gde::ops::num_ne, Cell(tmps[11].clone()), Cell(env.slot(0, 1)) /* b */),
            ]),
            rt::product(vec![
                rt::bind(tmps[12].clone(), rt::to_range(Cell(env.slot(0, 0)) /* a */, Cell(env.slot(0, 0)) /* a */, Const(Value::from(1i64)))),
                rt::op2(gde::ops::concat, Cell(tmps[12].clone()), Cell(env.slot(0, 1)) /* b */),
            ]),
            rt::product(vec![
                rt::bind(tmps[13].clone(), rt::to_range(Cell(env.slot(0, 0)) /* a */, Cell(env.slot(0, 0)) /* a */, Const(Value::from(1i64)))),
                rt::op2(gde::ops::str_lt, Cell(tmps[13].clone()), Cell(env.slot(0, 1)) /* b */),
            ]),
            rt::product(vec![
                rt::bind(tmps[14].clone(), rt::to_range(Cell(env.slot(0, 0)) /* a */, Cell(env.slot(0, 0)) /* a */, Const(Value::from(1i64)))),
                rt::op2(gde::ops::str_le, Cell(tmps[14].clone()), Cell(env.slot(0, 1)) /* b */),
            ]),
            rt::product(vec![
                rt::bind(tmps[15].clone(), rt::to_range(Cell(env.slot(0, 0)) /* a */, Cell(env.slot(0, 0)) /* a */, Const(Value::from(1i64)))),
                rt::op2(gde::ops::str_gt, Cell(tmps[15].clone()), Cell(env.slot(0, 1)) /* b */),
            ]),
            rt::product(vec![
                rt::bind(tmps[16].clone(), rt::to_range(Cell(env.slot(0, 0)) /* a */, Cell(env.slot(0, 0)) /* a */, Const(Value::from(1i64)))),
                rt::op2(gde::ops::str_ge, Cell(tmps[16].clone()), Cell(env.slot(0, 1)) /* b */),
            ]),
            rt::product(vec![
                rt::bind(tmps[17].clone(), rt::to_range(Cell(env.slot(0, 0)) /* a */, Cell(env.slot(0, 0)) /* a */, Const(Value::from(1i64)))),
                rt::op2(gde::ops::str_eq, Cell(tmps[17].clone()), Cell(env.slot(0, 1)) /* b */),
            ]),
            rt::product(vec![
                rt::bind(tmps[18].clone(), rt::to_range(Cell(env.slot(0, 0)) /* a */, Cell(env.slot(0, 0)) /* a */, Const(Value::from(1i64)))),
                rt::op2(gde::ops::str_ne, Cell(tmps[18].clone()), Cell(env.slot(0, 1)) /* b */),
            ]),
            rt::product(vec![
                rt::bind(tmps[19].clone(), rt::to_range(Cell(env.slot(0, 0)) /* a */, Cell(env.slot(0, 0)) /* a */, Const(Value::from(1i64)))),
                rt::op2(gde::ops::equiv, Cell(tmps[19].clone()), Cell(env.slot(0, 1)) /* b */),
            ]),
        ]),
    ], flags[0].clone()))
}

pub fn proc_zero() -> Def {
    Def::new("zero", [], 0, 0, 1, true, |env, tmps, flags| rt::body_root(vec![
        rt::return_gen(Some(rt::atom(Const(Value::from(7i64)))), flags[0].clone()),
    ], flags[0].clone()))
}

pub fn proc_shapes() -> Def {
    Def::new("shapes", ["n", "s", "l", "t", "c"], 2, 25, 1, false, |env, tmps, flags| rt::body_root(vec![
        rt::mute_once(rt::seq(vec![
            rt::decl(env.slot_local(2) /* l */, None),
            rt::decl(env.slot_local(3) /* t */, None),
            rt::decl(env.slot_local(4) /* c */, None),
        ])),
        rt::alt(vec![
            rt::op1(gde::ops::neg, Cell(env.slot(0, 0)) /* n */),
            rt::op1(rt::size, Cell(env.slot(0, 1)) /* s */),
            rt::product(vec![
                rt::bind(tmps[0].clone(), rt::product(vec![
                    rt::bind(tmps[1].clone(), rt::op2(gde::ops::add, Cell(env.slot(0, 0)) /* n */, Const(Value::from(1i64)))),
                    rt::to_range(Cell(env.slot(0, 0)) /* n */, Cell(tmps[1].clone()), Const(Value::from(1i64))),
                ])),
                rt::op1(gde::ops::neg, Cell(tmps[0].clone())),
            ]),
            rt::product(vec![
                rt::bind(tmps[2].clone(), rt::alt(vec![
                    rt::atom(Cell(env.slot(0, 1)) /* s */),
                    rt::atom(Const(Value::str("xy"))),
                ])),
                rt::op1(rt::size, Cell(tmps[2].clone())),
            ]),
        ]),
        rt::mute_once(rt::product(vec![
            rt::bind(tmps[3].clone(), rt::list(vec![])),
            rt::set_var(env.slot(0, 2) /* l */, Cell(tmps[3].clone())),
        ])),
        rt::op1(rt::size, Cell(env.slot(0, 2)) /* l */),
        rt::mute_once(rt::product(vec![
            rt::bind(tmps[4].clone(), rt::list(vec![Cell(env.slot(0, 0)) /* n */, Const(Value::from(2i64))])),
            rt::set_var(env.slot(0, 2) /* l */, Cell(tmps[4].clone())),
        ])),
        rt::alt(vec![
            rt::op2(gde::ops::index, Cell(env.slot(0, 2)) /* l */, Const(Value::from(1i64))),
            rt::product(vec![
                rt::bind(tmps[5].clone(), rt::to_range(Const(Value::from(1i64)), Const(Value::from(2i64)), Const(Value::from(1i64)))),
                rt::op2(gde::ops::index, Cell(env.slot(0, 2)) /* l */, Cell(tmps[5].clone())),
            ]),
        ]),
        rt::mute_once(rt::set_index(Cell(env.slot(0, 2)) /* l */, Const(Value::from(1i64)), Const(Value::from(9i64)))),
        rt::mute_once(rt::product(vec![
            rt::bind(tmps[6].clone(), rt::to_range(Const(Value::from(1i64)), Const(Value::from(2i64)), Const(Value::from(1i64)))),
            rt::bind(tmps[7].clone(), rt::product(vec![
                rt::bind(tmps[8].clone(), rt::op2(gde::ops::index, Cell(env.slot(0, 2)) /* l */, Const(Value::from(2i64)))),
                rt::op2(gde::ops::add, Cell(tmps[8].clone()), Const(Value::from(1i64))),
            ])),
            rt::set_index(Cell(env.slot(0, 2)) /* l */, Cell(tmps[6].clone()), Cell(tmps[7].clone())),
        ])),
        rt::promote(Cell(env.slot(0, 2)) /* l */),
        rt::product(vec![
            rt::bind(tmps[9].clone(), rt::product(vec![
                rt::bind(tmps[10].clone(), rt::op2(gde::ops::add, Cell(env.slot(0, 0)) /* n */, Const(Value::from(1i64)))),
                rt::bind(tmps[11].clone(), rt::op2(gde::ops::add, Cell(env.slot(0, 0)) /* n */, Const(Value::from(2i64)))),
                rt::list(vec![Cell(env.slot(0, 0)) /* n */, Cell(tmps[10].clone()), Cell(tmps[11].clone())]),
            ])),
            rt::promote(Cell(tmps[9].clone())),
        ]),
        rt::mute_once(rt::product(vec![
            rt::bind(tmps[12].clone(), rt::invoke(Cell(env.lookup_or_declare("table")), vec![Const(Value::from(0i64))])),
            rt::set_var(env.slot(0, 3) /* t */, Cell(tmps[12].clone())),
        ])),
        rt::mute_once(rt::set_field("k", Cell(env.slot(0, 3)) /* t */, Const(Value::from(5i64)))),
        rt::field("k", Cell(env.slot(0, 3)) /* t */),
        rt::mute_once(rt::product(vec![
            rt::bind(tmps[13].clone(), rt::alt(vec![
                rt::atom(Cell(env.slot(0, 3)) /* t */),
                rt::atom(Cell(env.slot(0, 3)) /* t */),
            ])),
            rt::bind(tmps[14].clone(), rt::product(vec![
                rt::bind(tmps[15].clone(), rt::field("k", Cell(env.slot(0, 3)) /* t */)),
                rt::op2(gde::ops::add, Cell(tmps[15].clone()), Const(Value::from(1i64))),
            ])),
            rt::set_field("k", Cell(tmps[13].clone()), Cell(tmps[14].clone())),
        ])),
        rt::product(vec![
            rt::bind(tmps[16].clone(), rt::alt(vec![
                rt::atom(Cell(env.slot(0, 3)) /* t */),
                rt::atom(Cell(env.slot(0, 3)) /* t */),
            ])),
            rt::field("k", Cell(tmps[16].clone())),
        ]),
        rt::alt(vec![
            rt::native(&env, "size", Cell(env.slot(0, 1)) /* s */, vec![]),
            rt::native(&env, "charAt", Cell(env.slot(0, 1)) /* s */, vec![Const(Value::from(1i64))]),
            rt::product(vec![
                rt::bind(tmps[17].clone(), rt::alt(vec![
                    rt::atom(Cell(env.slot(0, 1)) /* s */),
                    rt::atom(Const(Value::str("xy"))),
                ])),
                rt::native(&env, "size", Cell(tmps[17].clone()), vec![]),
            ]),
            rt::product(vec![
                rt::bind(tmps[18].clone(), rt::alt(vec![
                    rt::atom(Cell(env.slot(0, 1)) /* s */),
                    rt::atom(Const(Value::str("xy"))),
                ])),
                rt::bind(tmps[19].clone(), rt::to_range(Const(Value::from(0i64)), Const(Value::from(1i64)), Const(Value::from(1i64)))),
                rt::native(&env, "charAt", Cell(tmps[18].clone()), vec![Cell(tmps[19].clone())]),
            ]),
        ]),
        rt::invoke(Cell(env.lookup_or_declare("zero")), vec![]),
        rt::mute_once(rt::product(vec![
            rt::bind(tmps[20].clone(), rt::co_create(&env, |env| {
                let tmps = rt::tmps(25);
                let flags = rt::flags(1);
                rt::product(vec![
                    rt::bind(tmps[21].clone(), rt::op2(gde::ops::add, Cell(env.lookup_or_declare("n")), Const(Value::from(3i64)))),
                    rt::to_range(Cell(env.lookup_or_declare("n")), Cell(tmps[21].clone()), Const(Value::from(1i64))),
                ])
            })),
            rt::set_var(env.slot(0, 4) /* c */, Cell(tmps[20].clone())),
        ])),
        rt::op1(rt::activate, Cell(env.slot(0, 4)) /* c */),
        rt::product(vec![
            rt::bind(tmps[22].clone(), rt::to_range(Const(Value::from(1i64)), Const(Value::from(2i64)), Const(Value::from(1i64)))),
            rt::bind(tmps[23].clone(), rt::op1(rt::activate, Cell(env.slot(0, 4)) /* c */)),
            rt::op2(gde::ops::add, Cell(tmps[22].clone()), Cell(tmps[23].clone())),
        ]),
        rt::product(vec![
            rt::bind(tmps[24].clone(), rt::op1(rt::refresh, Cell(env.slot(0, 4)) /* c */)),
            rt::op1(rt::activate, Cell(tmps[24].clone())),
        ]),
    ], flags[0].clone()))
}

pub fn proc_control() -> Def {
    Def::new("control", ["n", "s", "i", "x", "c"], 2, 6, 5, false, |env, tmps, flags| rt::body_root(vec![
        rt::mute_once(rt::seq(vec![
            rt::decl(env.slot_local(2) /* i */, None),
            rt::decl(env.slot_local(3) /* x */, None),
            rt::decl(env.slot_local(4) /* c */, None),
        ])),
        rt::mute_once(rt::set_var(env.slot(0, 2) /* i */, Const(Value::from(0i64)))),
        rt::until_do(
            rt::op2(gde::ops::ge, Cell(env.slot(0, 2)) /* i */, Cell(env.slot(0, 0)) /* n */),
            Some(rt::stmt_seq(vec![
                rt::mute_once(rt::product(vec![
                    rt::bind(tmps[0].clone(), rt::op2(gde::ops::add, Cell(env.slot(0, 2)) /* i */, Const(Value::from(1i64)))),
                    rt::set_var(env.slot(0, 2) /* i */, Cell(tmps[0].clone())),
                ])),
                rt::if_gen(
                    rt::op2(gde::ops::num_eq, Cell(env.slot(0, 2)) /* i */, Const(Value::from(2i64))),
                    rt::flag_fail(flags[2].clone()),
                    None,
                ),
                rt::atom(Cell(env.slot(0, 2)) /* i */),
            ], vec![flags[0].clone(), flags[1].clone(), flags[2].clone()])),
            flags[1].clone(),
            flags[2].clone(),
            vec![flags[0].clone()],
        ),
        rt::while_do(
            rt::atom(Const(Value::Null)),
            Some(rt::stmt_seq(vec![
                rt::mute_once(rt::product(vec![
                    rt::bind(tmps[1].clone(), rt::op2(gde::ops::sub, Cell(env.slot(0, 2)) /* i */, Const(Value::from(1i64)))),
                    rt::set_var(env.slot(0, 2) /* i */, Cell(tmps[1].clone())),
                ])),
                rt::if_gen(
                    rt::op2(gde::ops::lt, Cell(env.slot(0, 2)) /* i */, Const(Value::from(1i64))),
                    rt::flag_fail(flags[3].clone()),
                    None,
                ),
                rt::op1(gde::ops::neg, Cell(env.slot(0, 2)) /* i */),
            ], vec![flags[0].clone(), flags[3].clone(), flags[4].clone()])),
            flags[3].clone(),
            flags[4].clone(),
            vec![flags[0].clone()],
        ),
        rt::dyn_limit(Cell(env.slot(0, 0)) /* n */, rt::to_range(Const(Value::from(1i64)), Const(Value::from(10i64)), Const(Value::from(1i64)))),
        rt::if_gen(
            rt::not(rt::op2(gde::ops::lt, Cell(env.slot(0, 0)) /* n */, Const(Value::from(0i64)))),
            rt::atom(Const(Value::str("pos"))),
            Some(rt::atom(Const(Value::str("neg")))),
        ),
        rt::mute_once(rt::set_var(env.slot(0, 3) /* x */, Const(Value::from(1i64)))),
        rt::product(vec![
            rt::rev_set(env.slot(0, 3) /* x */, Const(Value::from(5i64))),
            rt::op2(gde::ops::gt, Cell(env.slot(0, 3)) /* x */, Const(Value::from(9i64))),
        ]),
        rt::atom(Cell(env.slot(0, 3)) /* x */),
        rt::scan_gen(
            rt::atom(Cell(env.slot(0, 1)) /* s */),
            rt::seq(vec![
                rt::mute_once(rt::invoke(Cell(env.lookup_or_declare("tab")), vec![Const(Value::from(3i64))])),
                rt::product(vec![
                    rt::bind(tmps[2].clone(), rt::atom(ScanSubject)),
                    rt::bind(tmps[3].clone(), rt::atom(ScanPos)),
                    rt::op2(gde::ops::concat, Cell(tmps[2].clone()), Cell(tmps[3].clone())),
                ]),
            ]),
        ),
        rt::mute_once(rt::product(vec![
            rt::bind(tmps[4].clone(), rt::co_create_shadowed(&env, |env| {
                let tmps = rt::tmps(6);
                let flags = rt::flags(1);
                rt::product(vec![
                    rt::bind(tmps[5].clone(), rt::op2(gde::ops::add, Cell(env.lookup_or_declare("x")), Cell(env.lookup_or_declare("n")))),
                    rt::set_var(env.lookup_or_declare("x"), Cell(tmps[5].clone())),
                ])
            })),
            rt::set_var(env.slot(0, 4) /* c */, Cell(tmps[4].clone())),
        ])),
        rt::alt(vec![
            rt::op1(rt::activate, Cell(env.slot(0, 4)) /* c */),
            rt::atom(Cell(env.slot(0, 3)) /* x */),
        ]),
        rt::op2(gde::ops::add, rt::slot_big("12345678901234567890123"), Cell(env.slot(0, 0)) /* n */),
        rt::if_gen(
            rt::op2(gde::ops::gt, Cell(env.slot(0, 0)) /* n */, Const(Value::from(3i64))),
            rt::flag_fail(flags[0].clone()),
            None,
        ),
        rt::return_gen(Some(rt::product(vec![
            rt::atom(Cell(env.slot(0, 0)) /* n */),
            rt::op2(gde::ops::add, Cell(env.slot(0, 0)) /* n */, Const(Value::from(1i64))),
        ])), flags[0].clone()),
    ], flags[0].clone()))
}

pub fn proc_deferred() -> Def {
    Def::new("deferred", ["n", "t", "c", "i"], 1, 5, 3, false, |env, tmps, flags| rt::body_root(vec![
        rt::mute_once(rt::seq(vec![
            rt::decl(env.slot_local(1) /* t */, None),
            rt::decl(env.slot_local(2) /* c */, None),
            rt::decl(env.slot_local(3) /* i */, None),
        ])),
        rt::every_do(
            rt::product(vec![
                rt::bind(tmps[0].clone(), rt::to_range(Const(Value::from(1i64)), Cell(env.slot(0, 0)) /* n */, Const(Value::from(1i64)))),
                rt::set_var(env.slot(0, 3) /* i */, Cell(tmps[0].clone())),
            ]),
            Some(rt::stmt_seq(vec![
                rt::mute_once(rt::product(vec![
                    rt::bind(tmps[1].clone(), rt::pipe(&env, |env| {
                        let tmps = rt::tmps(5);
                        let flags = rt::flags(3);
                        rt::seq(vec![
                            rt::mute_once(rt::seq(vec![
                                rt::decl(env.declare("x", Value::Null), None),
                            ])),
                            rt::mute_once(rt::set_var(env.lookup_or_declare("x"), Const(Value::from(0i64)))),
                            rt::every_do(rt::product(vec![
                                rt::bind(tmps[2].clone(), rt::product(vec![
                                    rt::bind(tmps[3].clone(), rt::to_range(Const(Value::from(1i64)), Cell(env.lookup_or_declare("i")), Const(Value::from(1i64)))),
                                    rt::op2(gde::ops::add, Cell(env.lookup_or_declare("x")), Cell(tmps[3].clone())),
                                ])),
                                rt::set_var(env.lookup_or_declare("x"), Cell(tmps[2].clone())),
                            ]), None, flags[1].clone(), flags[2].clone(), vec![flags[0].clone()]),
                            rt::atom(Cell(env.lookup_or_declare("x"))),
                        ])
                    })),
                    rt::set_var(env.slot(0, 1) /* t */, Cell(tmps[1].clone())),
                ])),
                rt::promote(Cell(env.slot(0, 1)) /* t */),
                rt::mute_once(rt::product(vec![
                    rt::bind(tmps[4].clone(), rt::co_create(&env, |env| {
                        let tmps = rt::tmps(5);
                        let flags = rt::flags(1);
                        rt::seq(vec![
                            rt::fail(),
                            rt::op2(gde::ops::mul, Cell(env.lookup_or_declare("i")), Const(Value::from(10i64))),
                        ])
                    })),
                    rt::set_var(env.slot(0, 2) /* c */, Cell(tmps[4].clone())),
                ])),
                rt::op1(rt::activate, Cell(env.slot(0, 2)) /* c */),
            ], vec![flags[0].clone(), flags[1].clone(), flags[2].clone()])),
            flags[1].clone(),
            flags[2].clone(),
            vec![flags[0].clone()],
        ),
    ], flags[0].clone()))
}

pub fn install(globals: &Env) {
    rt::install(globals, [proc_binops(), proc_zero(), proc_shapes(), proc_control(), proc_deferred()]);
}

pub fn toplevel(globals: &Env) {}
