// Generated by junicon::emit — do not edit.
#![allow(unused, nonstandard_style, clippy::all)]

use gde::{env::Env, Value};
use junicon::rt::{self, Def, Slot::*};

pub fn proc_readLines() -> Def {
    Def::new("readLines", [], 0, 0, 1, true, |env, tmps, flags| rt::body_root(vec![
        rt::promote(Cell(env.lookup_or_declare("lines"))),
    ], flags[0].clone()))
}

pub fn proc_splitWords() -> Def {
    Def::new("splitWords", ["line"], 1, 1, 1, true, |env, tmps, flags| rt::body_root(vec![
        rt::product(vec![
            rt::bind(tmps[0].clone(), rt::native(&env, "split", Cell(env.slot(0, 0)) /* line */, vec![Const(Value::str("\\s+"))])),
            rt::promote(Cell(tmps[0].clone())),
        ]),
    ], flags[0].clone()))
}

pub fn proc_hashWords() -> Def {
    Def::new("hashWords", ["line"], 1, 2, 1, true, |env, tmps, flags| rt::body_root(vec![
        rt::product(vec![
            rt::bind(tmps[0].clone(), rt::product(vec![
                rt::bind(tmps[1].clone(), rt::invoke(Cell(env.lookup_or_declare("splitWords")), vec![Cell(env.slot(0, 0)) /* line */])),
                rt::native(&env, "wordToNumber", Cell(env.lookup_or_declare("this")), vec![Cell(tmps[1].clone())]),
            ])),
            rt::native(&env, "hashNumber", Cell(env.lookup_or_declare("this")), vec![Cell(tmps[0].clone())]),
        ]),
    ], flags[0].clone()))
}

pub fn proc_chunk() -> Def {
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
                        rt::op2(gde::ops::ge, Cell(tmps[2].clone()), Cell(env.lookup_or_declare("chunkSize"))),
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

pub fn proc_mapReduce() -> Def {
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
                rt::bind(tmps[1].clone(), rt::invoke(Cell(env.lookup_or_declare("chunk")), vec![Cell(env.slot(0, 1)) /* s */])),
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

pub fn proc_wordSize() -> Def {
    Def::new("wordSize", ["w"], 1, 0, 1, true, |env, tmps, flags| rt::body_root(vec![
        rt::return_gen(Some(rt::op1(rt::size, Cell(env.slot(0, 0)) /* w */)), flags[0].clone()),
    ], flags[0].clone()))
}

pub fn proc_sum() -> Def {
    Def::new("sum", ["a", "b"], 2, 0, 1, true, |env, tmps, flags| rt::body_root(vec![
        rt::return_gen(Some(rt::op2(gde::ops::add, Cell(env.slot(0, 0)) /* a */, Cell(env.slot(0, 1)) /* b */)), flags[0].clone()),
    ], flags[0].clone()))
}

pub fn proc_freqReport() -> Def {
    Def::new("freqReport", ["counts", "w", "n"], 0, 9, 5, true, |env, tmps, flags| rt::body_root(vec![
        rt::mute_once(rt::seq(vec![
            rt::decl(env.slot_local(0) /* counts */, None),
            rt::decl(env.slot_local(1) /* w */, None),
            rt::decl(env.slot_local(2) /* n */, None),
        ])),
        rt::mute_once(rt::product(vec![
            rt::bind(tmps[0].clone(), rt::invoke(Cell(env.lookup_or_declare("table")), vec![Const(Value::from(0i64))])),
            rt::set_var(env.slot(0, 0) /* counts */, Cell(tmps[0].clone())),
        ])),
        rt::every_do(
            rt::product(vec![
                rt::bind(tmps[1].clone(), rt::product(vec![
                    rt::bind(tmps[2].clone(), rt::invoke(Cell(env.lookup_or_declare("readLines")), vec![])),
                    rt::invoke(Cell(env.lookup_or_declare("splitWords")), vec![Cell(tmps[2].clone())]),
                ])),
                rt::set_var(env.slot(0, 1) /* w */, Cell(tmps[1].clone())),
            ]),
            Some(rt::stmt_seq(vec![
                rt::mute_once(rt::product(vec![
                    rt::bind(tmps[3].clone(), rt::product(vec![
                        rt::bind(tmps[4].clone(), rt::op2(gde::ops::index, Cell(env.slot(0, 0)) /* counts */, Cell(env.slot(0, 1)) /* w */)),
                        rt::op2(gde::ops::add, Cell(tmps[4].clone()), Const(Value::from(1i64))),
                    ])),
                    rt::set_index(Cell(env.slot(0, 0)) /* counts */, Cell(env.slot(0, 1)) /* w */, Cell(tmps[3].clone())),
                ])),
            ], vec![flags[0].clone(), flags[1].clone(), flags[2].clone()])),
            flags[1].clone(),
            flags[2].clone(),
            vec![flags[0].clone()],
        ),
        rt::every_do(
            rt::product(vec![
                rt::bind(tmps[5].clone(), rt::product(vec![
                    rt::bind(tmps[6].clone(), rt::invoke(Cell(env.lookup_or_declare("readLines")), vec![])),
                    rt::invoke(Cell(env.lookup_or_declare("splitWords")), vec![Cell(tmps[6].clone())]),
                ])),
                rt::set_var(env.slot(0, 1) /* w */, Cell(tmps[5].clone())),
            ]),
            Some(rt::stmt_seq(vec![
                rt::mute_once(rt::product(vec![
                    rt::bind(tmps[7].clone(), rt::op2(gde::ops::index, Cell(env.slot(0, 0)) /* counts */, Cell(env.slot(0, 1)) /* w */)),
                    rt::set_var(env.slot(0, 2) /* n */, Cell(tmps[7].clone())),
                ])),
                rt::if_gen(
                    rt::op2(gde::ops::gt, Cell(env.slot(0, 2)) /* n */, Const(Value::from(0i64))),
                    rt::stmt_seq(vec![
                        rt::mute_once(rt::set_index(Cell(env.slot(0, 0)) /* counts */, Cell(env.slot(0, 1)) /* w */, Const(Value::from(0i64)))),
                        rt::product(vec![
                            rt::bind(tmps[8].clone(), rt::op2(gde::ops::concat, Cell(env.slot(0, 1)) /* w */, Const(Value::str("=")))),
                            rt::op2(gde::ops::concat, Cell(tmps[8].clone()), Cell(env.slot(0, 2)) /* n */),
                        ]),
                    ], vec![flags[0].clone(), flags[3].clone(), flags[4].clone()]),
                    None,
                ),
            ], vec![flags[0].clone(), flags[3].clone(), flags[4].clone()])),
            flags[3].clone(),
            flags[4].clone(),
            vec![flags[0].clone()],
        ),
    ], flags[0].clone()))
}

pub fn install(globals: &Env) {
    rt::install(globals, [proc_readLines(), proc_splitWords(), proc_hashWords(), proc_chunk(), proc_mapReduce(), proc_wordSize(), proc_sum(), proc_freqReport()]);
}

pub fn toplevel(globals: &Env) {}
