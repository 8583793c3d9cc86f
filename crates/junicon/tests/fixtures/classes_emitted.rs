// Generated by junicon::emit — do not edit.
#![allow(unused, nonstandard_style, clippy::all)]

use gde::{env::Env, Value};
use junicon::rt::{self, Def, Slot::*};

pub fn proc_square() -> Def {
    Def::new("square", ["x"], 1, 0, 1, true, |env, tmps, flags| rt::body_root(vec![
        rt::return_gen(Some(rt::op2(gde::ops::mul, Cell(env.slot(0, 0)) /* x */, Cell(env.slot(0, 0)) /* x */)), flags[0].clone()),
    ], flags[0].clone()))
}

pub fn proc_sum() -> Def {
    Def::new("sum", ["a", "b"], 2, 0, 1, true, |env, tmps, flags| rt::body_root(vec![
        rt::return_gen(Some(rt::op2(gde::ops::add, Cell(env.slot(0, 0)) /* a */, Cell(env.slot(0, 1)) /* b */)), flags[0].clone()),
    ], flags[0].clone()))
}

pub fn method_DataParallel_chunk() -> Def {
    Def::new("chunk", ["e", "c"], 1, 5, 3, true, |env, tmps, flags| rt::body_root(vec![
        rt::mute_once(rt::seq(vec![
            rt::decl(env.slot_local(1) /* c */, None),
        ])),
        rt::mute_once(rt::product(vec![
            rt::bind(tmps[0].clone(), rt::list(vec![])),
            rt::set_var(env.slot(0, 1) /* c */, Cell(tmps[0].clone())),
        ])),
        rt::while_do(
            rt::product(vec![
                rt::bind(tmps[1].clone(), rt::op1(rt::activate, Cell(env.slot(0, 0)) /* e */)),
                rt::invoke(Cell(env.lookup_or_declare("put")), vec![Cell(env.slot(0, 1)) /* c */, Cell(tmps[1].clone())]),
            ]),
            Some(rt::stmt_seq(vec![
                rt::if_gen(
                    rt::product(vec![
                        rt::bind(tmps[2].clone(), rt::op1(rt::size, Cell(env.slot(0, 1)) /* c */)),
                        rt::op2(gde::ops::ge, Cell(tmps[2].clone()), Cell(env.slot(1, 0)) /* chunkSize */),
                    ]),
                    rt::stmt_seq(vec![
                        rt::atom(Cell(env.slot(0, 1)) /* c */),
                        rt::mute_once(rt::product(vec![
                            rt::bind(tmps[3].clone(), rt::list(vec![])),
                            rt::set_var(env.slot(0, 1) /* c */, Cell(tmps[3].clone())),
                        ])),
                    ], vec![flags[0].clone(), flags[1].clone(), flags[2].clone()]),
                    None,
                ),
            ], vec![flags[0].clone(), flags[1].clone(), flags[2].clone()])),
            flags[1].clone(),
            flags[2].clone(),
            vec![flags[0].clone()],
        ),
        rt::if_gen(
            rt::product(vec![
                rt::bind(tmps[4].clone(), rt::op1(rt::size, Cell(env.slot(0, 1)) /* c */)),
                rt::op2(gde::ops::gt, Cell(tmps[4].clone()), Const(Value::from(0i64))),
            ]),
            rt::stmt_seq(vec![
                rt::return_gen(Some(rt::atom(Cell(env.slot(0, 1)) /* c */)), flags[0].clone()),
            ], vec![flags[0].clone()]),
            None,
        ),
    ], flags[0].clone()))
}

pub fn method_DataParallel_mapReduce() -> Def {
    Def::new("mapReduce", ["f", "s", "r", "init", "c", "t", "tasks"], 4, 7, 3, false, |env, tmps, flags| rt::body_root(vec![
        rt::mute_once(rt::seq(vec![
            rt::decl(env.slot_local(4) /* c */, None),
            rt::decl(env.slot_local(5) /* t */, None),
            rt::decl(env.slot_local(6) /* tasks */, None),
        ])),
        rt::mute_once(rt::product(vec![
            rt::bind(tmps[0].clone(), rt::list(vec![])),
            rt::set_var(env.slot(0, 6) /* tasks */, Cell(tmps[0].clone())),
        ])),
        rt::every_do(
            rt::product(vec![
                rt::bind(tmps[1].clone(), rt::invoke(Cell(env.slot(1, 1)) /* chunk */, vec![Cell(env.slot(0, 1)) /* s */])),
                rt::set_var(env.slot(0, 4) /* c */, Cell(tmps[1].clone())),
            ]),
            Some(rt::stmt_seq(vec![
                rt::mute_once(rt::product(vec![
                    rt::bind(tmps[2].clone(), rt::pipe(&env, |env| {
                        let tmps = rt::tmps(7);
                        let flags = rt::flags(3);
                        rt::seq(vec![
                            rt::mute_once(rt::seq(vec![
                                rt::decl(env.declare("x", Value::Null), None),
                            ])),
                            rt::mute_once(rt::set_var(env.lookup_or_declare("x"), Cell(env.lookup_or_declare("init")))),
                            rt::every_do(rt::product(vec![
                                rt::bind(tmps[3].clone(), rt::product(vec![
                                    rt::bind(tmps[4].clone(), rt::product(vec![
                                        rt::bind(tmps[5].clone(), rt::promote(Cell(env.lookup_or_declare("c")))),
                                        rt::invoke(Cell(env.lookup_or_declare("f")), vec![Cell(tmps[5].clone())]),
                                    ])),
                                    rt::invoke(Cell(env.lookup_or_declare("r")), vec![Cell(env.lookup_or_declare("x")), Cell(tmps[4].clone())]),
                                ])),
                                rt::set_var(env.lookup_or_declare("x"), Cell(tmps[3].clone())),
                            ]), None, flags[1].clone(), flags[2].clone(), vec![flags[0].clone()]),
                            rt::atom(Cell(env.lookup_or_declare("x"))),
                        ])
                    })),
                    rt::set_var(env.slot(0, 5) /* t */, Cell(tmps[2].clone())),
                ])),
                rt::mute_once(rt::native(&env, "add", Cell(env.slot(0, 6)) /* tasks */, vec![Cell(env.slot(0, 5)) /* t */])),
            ], vec![flags[0].clone(), flags[1].clone(), flags[2].clone()])),
            flags[1].clone(),
            flags[2].clone(),
            vec![flags[0].clone()],
        ),
        rt::product(vec![
            rt::bind(tmps[6].clone(), rt::promote(Cell(env.slot(0, 6)) /* tasks */)),
            rt::promote(Cell(tmps[6].clone())),
        ]),
    ], flags[0].clone()))
}

pub fn class_DataParallel() -> Def {
    rt::class("DataParallel", ["chunkSize", "chunk", "mapReduce", "self"], 1, vec![method_DataParallel_chunk(), method_DataParallel_mapReduce()])
}

pub fn method_Counter_bump() -> Def {
    Def::new("bump", ["k"], 1, 1, 1, true, |env, tmps, flags| rt::body_root(vec![
        rt::mute_once(rt::product(vec![
            rt::bind(tmps[0].clone(), rt::op2(gde::ops::add, Cell(env.slot(1, 0)) /* n */, Cell(env.slot(0, 0)) /* k */)),
            rt::set_var(env.slot(1, 0) /* n */, Cell(tmps[0].clone())),
        ])),
        rt::return_gen(Some(rt::atom(Cell(env.slot(1, 3)) /* self */)), flags[0].clone()),
    ], flags[0].clone()))
}

pub fn method_Counter_total() -> Def {
    Def::new("total", [], 0, 0, 1, true, |env, tmps, flags| rt::body_root(vec![
        rt::return_gen(Some(rt::atom(Cell(env.slot(1, 0)) /* n */)), flags[0].clone()),
    ], flags[0].clone()))
}

pub fn class_Counter() -> Def {
    rt::class("Counter", ["n", "bump", "total", "self"], 1, vec![method_Counter_bump(), method_Counter_total()])
}

pub fn class_Pair() -> Def {
    rt::class("Pair", ["first", "second", "self"], 2, vec![])
}

pub fn install(globals: &Env) {
    rt::install(globals, [proc_square(), proc_sum(), class_DataParallel(), class_Counter(), class_Pair()]);
}

pub fn toplevel(globals: &Env) {}
