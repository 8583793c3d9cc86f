// Generated by junicon::emit — do not edit.
#![allow(unused, nonstandard_style, clippy::all)]

use gde::{env::Env, ProcValue, Value};
use junicon::rt::{self, Slot::*};

pub fn proc_readLines(globals: &Env) -> ProcValue {
    rt::proc(globals, "readLines", [], 0, 0, 1, |env, tmps, flags| rt::body_root(vec![
        rt::promote(Cell(env.lookup_or_declare("lines"))),
    ], flags[0].clone()))
}

pub fn proc_splitWords(globals: &Env) -> ProcValue {
    rt::proc(globals, "splitWords", ["line"], 1, 1, 1, |env, tmps, flags| rt::body_root(vec![
        rt::product(vec![
            rt::bind(tmps[0].clone(), rt::thunk({ let s0 = Cell(env.slot(0, 0)) /* line */; let s1 = Const(Value::str("\\s+")); move || rt::native_method(&s0.get(), "split", &[s1.get()]) })),
            rt::promote(Cell(tmps[0].clone())),
        ]),
    ], flags[0].clone()))
}

pub fn proc_chunk(globals: &Env) -> ProcValue {
    rt::proc(globals, "chunk", ["e", "c"], 1, 5, 3, |env, tmps, flags| rt::body_root(vec![
        rt::mute_once(rt::seq(vec![
            rt::decl(env.slot_local(1) /* c */, None),
        ])),
        rt::mute_once(rt::product(vec![
            rt::bind(tmps[0].clone(), rt::thunk({ move || rt::list(vec![]) })),
            rt::set_var(env.slot(0, 1) /* c */, Cell(tmps[0].clone())),
        ])),
        rt::while_do(
            rt::product(vec![
                rt::bind(tmps[1].clone(), rt::thunk({ let s0 = Cell(env.slot(0, 0)) /* e */; move || coexpr::activate(&s0.get()) })),
                rt::invoke(Cell(env.lookup_or_declare("put")), vec![Cell(env.slot(0, 1)) /* c */, Cell(tmps[1].clone())]),
            ]),
            Some(rt::stmt_seq(vec![
                rt::if_gen(
                    rt::product(vec![
                        rt::bind(tmps[2].clone(), rt::thunk({ let s0 = Cell(env.slot(0, 1)) /* c */; move || rt::size(&s0.get()) })),
                        rt::thunk({ let s0 = Cell(tmps[2].clone()); let s1 = Cell(env.lookup_or_declare("chunkSize")); move || gde::ops::ge(&s0.get(), &s1.get()) }),
                    ]),
                    rt::stmt_seq(vec![
                        rt::atom(Cell(env.slot(0, 1)) /* c */),
                        rt::mute_once(rt::product(vec![
                            rt::bind(tmps[3].clone(), rt::thunk({ move || rt::list(vec![]) })),
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
                rt::bind(tmps[4].clone(), rt::thunk({ let s0 = Cell(env.slot(0, 1)) /* c */; move || rt::size(&s0.get()) })),
                rt::thunk({ let s0 = Cell(tmps[4].clone()); let s1 = Const(Value::from(0i64)); move || gde::ops::gt(&s0.get(), &s1.get()) }),
            ]),
            rt::stmt_seq(vec![
                rt::return_gen(Some(rt::atom(Cell(env.slot(0, 1)) /* c */)), flags[0].clone()),
            ], vec![flags[0].clone()]),
            None,
        ),
    ], flags[0].clone()))
}

pub fn proc_mapReduce(globals: &Env) -> ProcValue {
    rt::proc(globals, "mapReduce", ["f", "s", "r", "init", "c", "t", "tasks"], 4, 7, 3, |env, tmps, flags| rt::body_root(vec![
        rt::mute_once(rt::seq(vec![
            rt::decl(env.slot_local(4) /* c */, None),
            rt::decl(env.slot_local(5) /* t */, None),
            rt::decl(env.slot_local(6) /* tasks */, None),
        ])),
        rt::mute_once(rt::product(vec![
            rt::bind(tmps[0].clone(), rt::thunk({ move || rt::list(vec![]) })),
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
                rt::mute_once(rt::thunk({ let s0 = Cell(env.slot(0, 6)) /* tasks */; let s1 = Cell(env.slot(0, 5)) /* t */; move || rt::native_method(&s0.get(), "add", &[s1.get()]) })),
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

pub fn proc_wordSize(globals: &Env) -> ProcValue {
    rt::proc(globals, "wordSize", ["w"], 1, 0, 1, |env, tmps, flags| rt::body_root(vec![
        rt::return_gen(Some(rt::thunk({ let s0 = Cell(env.slot(0, 0)) /* w */; move || rt::size(&s0.get()) })), flags[0].clone()),
    ], flags[0].clone()))
}

pub fn proc_sum(globals: &Env) -> ProcValue {
    rt::proc(globals, "sum", ["a", "b"], 2, 0, 1, |env, tmps, flags| rt::body_root(vec![
        rt::return_gen(Some(rt::thunk({ let s0 = Cell(env.slot(0, 0)) /* a */; let s1 = Cell(env.slot(0, 1)) /* b */; move || gde::ops::add(&s0.get(), &s1.get()) })), flags[0].clone()),
    ], flags[0].clone()))
}

pub fn proc_freqReport(globals: &Env) -> ProcValue {
    rt::proc(globals, "freqReport", ["counts", "w", "n"], 0, 9, 5, |env, tmps, flags| rt::body_root(vec![
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
                        rt::bind(tmps[4].clone(), rt::thunk({ let s0 = Cell(env.slot(0, 0)) /* counts */; let s1 = Cell(env.slot(0, 1)) /* w */; move || gde::ops::index(&s0.get(), &s1.get()) })),
                        rt::thunk({ let s0 = Cell(tmps[4].clone()); let s1 = Const(Value::from(1i64)); move || gde::ops::add(&s0.get(), &s1.get()) }),
                    ])),
                    rt::thunk({ let s0 = Cell(env.slot(0, 0)) /* counts */; let s1 = Cell(env.slot(0, 1)) /* w */; let s2 = Cell(tmps[3].clone()); move || gde::ops::index_assign(&s0.get(), &s1.get(), s2.get()) }),
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
                    rt::bind(tmps[7].clone(), rt::thunk({ let s0 = Cell(env.slot(0, 0)) /* counts */; let s1 = Cell(env.slot(0, 1)) /* w */; move || gde::ops::index(&s0.get(), &s1.get()) })),
                    rt::set_var(env.slot(0, 2) /* n */, Cell(tmps[7].clone())),
                ])),
                rt::if_gen(
                    rt::thunk({ let s0 = Cell(env.slot(0, 2)) /* n */; let s1 = Const(Value::from(0i64)); move || gde::ops::gt(&s0.get(), &s1.get()) }),
                    rt::stmt_seq(vec![
                        rt::mute_once(rt::thunk({ let s0 = Cell(env.slot(0, 0)) /* counts */; let s1 = Cell(env.slot(0, 1)) /* w */; let s2 = Const(Value::from(0i64)); move || gde::ops::index_assign(&s0.get(), &s1.get(), s2.get()) })),
                        rt::product(vec![
                            rt::bind(tmps[8].clone(), rt::thunk({ let s0 = Cell(env.slot(0, 1)) /* w */; let s1 = Const(Value::str("=")); move || gde::ops::concat(&s0.get(), &s1.get()) })),
                            rt::thunk({ let s0 = Cell(tmps[8].clone()); let s1 = Cell(env.slot(0, 2)) /* n */; move || gde::ops::concat(&s0.get(), &s1.get()) }),
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
    rt::install(globals, &[proc_readLines, proc_splitWords, proc_chunk, proc_mapReduce, proc_wordSize, proc_sum, proc_freqReport]);
}

pub fn toplevel(globals: &Env) {}
