// Generated by junicon::emit — do not edit.
#![allow(unused, nonstandard_style, clippy::all)]

use gde::{env::Env, ProcValue, Value};
use junicon::rt::{self, Slot::*};

pub fn proc_binops(globals: &Env) -> ProcValue {
    rt::proc(globals, "binops", ["a", "b"], 2, 20, 1, |env, tmps, flags| rt::body_root(vec![
        rt::alt(vec![
            rt::thunk({ let s0 = Cell(env.slot(0, 0)) /* a */; let s1 = Cell(env.slot(0, 1)) /* b */; move || gde::ops::add(&s0.get(), &s1.get()) }),
            rt::thunk({ let s0 = Cell(env.slot(0, 0)) /* a */; let s1 = Cell(env.slot(0, 1)) /* b */; move || gde::ops::sub(&s0.get(), &s1.get()) }),
            rt::thunk({ let s0 = Cell(env.slot(0, 0)) /* a */; let s1 = Cell(env.slot(0, 1)) /* b */; move || gde::ops::mul(&s0.get(), &s1.get()) }),
            rt::thunk({ let s0 = Cell(env.slot(0, 0)) /* a */; let s1 = Cell(env.slot(0, 1)) /* b */; move || gde::ops::div(&s0.get(), &s1.get()) }),
            rt::thunk({ let s0 = Cell(env.slot(0, 0)) /* a */; let s1 = Cell(env.slot(0, 1)) /* b */; move || gde::ops::rem(&s0.get(), &s1.get()) }),
            rt::thunk({ let s0 = Cell(env.slot(0, 0)) /* a */; let s1 = Cell(env.slot(0, 1)) /* b */; move || gde::ops::pow(&s0.get(), &s1.get()) }),
            rt::thunk({ let s0 = Cell(env.slot(0, 0)) /* a */; let s1 = Cell(env.slot(0, 1)) /* b */; move || gde::ops::lt(&s0.get(), &s1.get()) }),
            rt::thunk({ let s0 = Cell(env.slot(0, 0)) /* a */; let s1 = Cell(env.slot(0, 1)) /* b */; move || gde::ops::le(&s0.get(), &s1.get()) }),
            rt::thunk({ let s0 = Cell(env.slot(0, 0)) /* a */; let s1 = Cell(env.slot(0, 1)) /* b */; move || gde::ops::gt(&s0.get(), &s1.get()) }),
            rt::thunk({ let s0 = Cell(env.slot(0, 0)) /* a */; let s1 = Cell(env.slot(0, 1)) /* b */; move || gde::ops::ge(&s0.get(), &s1.get()) }),
            rt::thunk({ let s0 = Cell(env.slot(0, 0)) /* a */; let s1 = Cell(env.slot(0, 1)) /* b */; move || gde::ops::num_eq(&s0.get(), &s1.get()) }),
            rt::thunk({ let s0 = Cell(env.slot(0, 0)) /* a */; let s1 = Cell(env.slot(0, 1)) /* b */; move || gde::ops::num_ne(&s0.get(), &s1.get()) }),
            rt::thunk({ let s0 = Cell(env.slot(0, 0)) /* a */; let s1 = Cell(env.slot(0, 1)) /* b */; move || gde::ops::concat(&s0.get(), &s1.get()) }),
            rt::thunk({ let s0 = Cell(env.slot(0, 0)) /* a */; let s1 = Cell(env.slot(0, 1)) /* b */; move || gde::ops::str_lt(&s0.get(), &s1.get()) }),
            rt::thunk({ let s0 = Cell(env.slot(0, 0)) /* a */; let s1 = Cell(env.slot(0, 1)) /* b */; move || gde::ops::str_le(&s0.get(), &s1.get()) }),
            rt::thunk({ let s0 = Cell(env.slot(0, 0)) /* a */; let s1 = Cell(env.slot(0, 1)) /* b */; move || gde::ops::str_gt(&s0.get(), &s1.get()) }),
            rt::thunk({ let s0 = Cell(env.slot(0, 0)) /* a */; let s1 = Cell(env.slot(0, 1)) /* b */; move || gde::ops::str_ge(&s0.get(), &s1.get()) }),
            rt::thunk({ let s0 = Cell(env.slot(0, 0)) /* a */; let s1 = Cell(env.slot(0, 1)) /* b */; move || gde::ops::str_eq(&s0.get(), &s1.get()) }),
            rt::thunk({ let s0 = Cell(env.slot(0, 0)) /* a */; let s1 = Cell(env.slot(0, 1)) /* b */; move || gde::ops::str_ne(&s0.get(), &s1.get()) }),
            rt::thunk({ let s0 = Cell(env.slot(0, 0)) /* a */; let s1 = Cell(env.slot(0, 1)) /* b */; move || gde::ops::equiv(&s0.get(), &s1.get()) }),
        ]),
        rt::alt(vec![
            rt::product(vec![
                rt::bind(tmps[0].clone(), rt::to_range(Cell(env.slot(0, 0)) /* a */, Cell(env.slot(0, 0)) /* a */, Const(Value::from(1i64)))),
                rt::thunk({ let s0 = Cell(tmps[0].clone()); let s1 = Cell(env.slot(0, 1)) /* b */; move || gde::ops::add(&s0.get(), &s1.get()) }),
            ]),
            rt::product(vec![
                rt::bind(tmps[1].clone(), rt::to_range(Cell(env.slot(0, 0)) /* a */, Cell(env.slot(0, 0)) /* a */, Const(Value::from(1i64)))),
                rt::thunk({ let s0 = Cell(tmps[1].clone()); let s1 = Cell(env.slot(0, 1)) /* b */; move || gde::ops::sub(&s0.get(), &s1.get()) }),
            ]),
            rt::product(vec![
                rt::bind(tmps[2].clone(), rt::to_range(Cell(env.slot(0, 0)) /* a */, Cell(env.slot(0, 0)) /* a */, Const(Value::from(1i64)))),
                rt::thunk({ let s0 = Cell(tmps[2].clone()); let s1 = Cell(env.slot(0, 1)) /* b */; move || gde::ops::mul(&s0.get(), &s1.get()) }),
            ]),
            rt::product(vec![
                rt::bind(tmps[3].clone(), rt::to_range(Cell(env.slot(0, 0)) /* a */, Cell(env.slot(0, 0)) /* a */, Const(Value::from(1i64)))),
                rt::thunk({ let s0 = Cell(tmps[3].clone()); let s1 = Cell(env.slot(0, 1)) /* b */; move || gde::ops::div(&s0.get(), &s1.get()) }),
            ]),
            rt::product(vec![
                rt::bind(tmps[4].clone(), rt::to_range(Cell(env.slot(0, 0)) /* a */, Cell(env.slot(0, 0)) /* a */, Const(Value::from(1i64)))),
                rt::thunk({ let s0 = Cell(tmps[4].clone()); let s1 = Cell(env.slot(0, 1)) /* b */; move || gde::ops::rem(&s0.get(), &s1.get()) }),
            ]),
            rt::product(vec![
                rt::bind(tmps[5].clone(), rt::to_range(Cell(env.slot(0, 0)) /* a */, Cell(env.slot(0, 0)) /* a */, Const(Value::from(1i64)))),
                rt::thunk({ let s0 = Cell(tmps[5].clone()); let s1 = Cell(env.slot(0, 1)) /* b */; move || gde::ops::pow(&s0.get(), &s1.get()) }),
            ]),
            rt::product(vec![
                rt::bind(tmps[6].clone(), rt::to_range(Cell(env.slot(0, 0)) /* a */, Cell(env.slot(0, 0)) /* a */, Const(Value::from(1i64)))),
                rt::thunk({ let s0 = Cell(tmps[6].clone()); let s1 = Cell(env.slot(0, 1)) /* b */; move || gde::ops::lt(&s0.get(), &s1.get()) }),
            ]),
            rt::product(vec![
                rt::bind(tmps[7].clone(), rt::to_range(Cell(env.slot(0, 0)) /* a */, Cell(env.slot(0, 0)) /* a */, Const(Value::from(1i64)))),
                rt::thunk({ let s0 = Cell(tmps[7].clone()); let s1 = Cell(env.slot(0, 1)) /* b */; move || gde::ops::le(&s0.get(), &s1.get()) }),
            ]),
            rt::product(vec![
                rt::bind(tmps[8].clone(), rt::to_range(Cell(env.slot(0, 0)) /* a */, Cell(env.slot(0, 0)) /* a */, Const(Value::from(1i64)))),
                rt::thunk({ let s0 = Cell(tmps[8].clone()); let s1 = Cell(env.slot(0, 1)) /* b */; move || gde::ops::gt(&s0.get(), &s1.get()) }),
            ]),
            rt::product(vec![
                rt::bind(tmps[9].clone(), rt::to_range(Cell(env.slot(0, 0)) /* a */, Cell(env.slot(0, 0)) /* a */, Const(Value::from(1i64)))),
                rt::thunk({ let s0 = Cell(tmps[9].clone()); let s1 = Cell(env.slot(0, 1)) /* b */; move || gde::ops::ge(&s0.get(), &s1.get()) }),
            ]),
            rt::product(vec![
                rt::bind(tmps[10].clone(), rt::to_range(Cell(env.slot(0, 0)) /* a */, Cell(env.slot(0, 0)) /* a */, Const(Value::from(1i64)))),
                rt::thunk({ let s0 = Cell(tmps[10].clone()); let s1 = Cell(env.slot(0, 1)) /* b */; move || gde::ops::num_eq(&s0.get(), &s1.get()) }),
            ]),
            rt::product(vec![
                rt::bind(tmps[11].clone(), rt::to_range(Cell(env.slot(0, 0)) /* a */, Cell(env.slot(0, 0)) /* a */, Const(Value::from(1i64)))),
                rt::thunk({ let s0 = Cell(tmps[11].clone()); let s1 = Cell(env.slot(0, 1)) /* b */; move || gde::ops::num_ne(&s0.get(), &s1.get()) }),
            ]),
            rt::product(vec![
                rt::bind(tmps[12].clone(), rt::to_range(Cell(env.slot(0, 0)) /* a */, Cell(env.slot(0, 0)) /* a */, Const(Value::from(1i64)))),
                rt::thunk({ let s0 = Cell(tmps[12].clone()); let s1 = Cell(env.slot(0, 1)) /* b */; move || gde::ops::concat(&s0.get(), &s1.get()) }),
            ]),
            rt::product(vec![
                rt::bind(tmps[13].clone(), rt::to_range(Cell(env.slot(0, 0)) /* a */, Cell(env.slot(0, 0)) /* a */, Const(Value::from(1i64)))),
                rt::thunk({ let s0 = Cell(tmps[13].clone()); let s1 = Cell(env.slot(0, 1)) /* b */; move || gde::ops::str_lt(&s0.get(), &s1.get()) }),
            ]),
            rt::product(vec![
                rt::bind(tmps[14].clone(), rt::to_range(Cell(env.slot(0, 0)) /* a */, Cell(env.slot(0, 0)) /* a */, Const(Value::from(1i64)))),
                rt::thunk({ let s0 = Cell(tmps[14].clone()); let s1 = Cell(env.slot(0, 1)) /* b */; move || gde::ops::str_le(&s0.get(), &s1.get()) }),
            ]),
            rt::product(vec![
                rt::bind(tmps[15].clone(), rt::to_range(Cell(env.slot(0, 0)) /* a */, Cell(env.slot(0, 0)) /* a */, Const(Value::from(1i64)))),
                rt::thunk({ let s0 = Cell(tmps[15].clone()); let s1 = Cell(env.slot(0, 1)) /* b */; move || gde::ops::str_gt(&s0.get(), &s1.get()) }),
            ]),
            rt::product(vec![
                rt::bind(tmps[16].clone(), rt::to_range(Cell(env.slot(0, 0)) /* a */, Cell(env.slot(0, 0)) /* a */, Const(Value::from(1i64)))),
                rt::thunk({ let s0 = Cell(tmps[16].clone()); let s1 = Cell(env.slot(0, 1)) /* b */; move || gde::ops::str_ge(&s0.get(), &s1.get()) }),
            ]),
            rt::product(vec![
                rt::bind(tmps[17].clone(), rt::to_range(Cell(env.slot(0, 0)) /* a */, Cell(env.slot(0, 0)) /* a */, Const(Value::from(1i64)))),
                rt::thunk({ let s0 = Cell(tmps[17].clone()); let s1 = Cell(env.slot(0, 1)) /* b */; move || gde::ops::str_eq(&s0.get(), &s1.get()) }),
            ]),
            rt::product(vec![
                rt::bind(tmps[18].clone(), rt::to_range(Cell(env.slot(0, 0)) /* a */, Cell(env.slot(0, 0)) /* a */, Const(Value::from(1i64)))),
                rt::thunk({ let s0 = Cell(tmps[18].clone()); let s1 = Cell(env.slot(0, 1)) /* b */; move || gde::ops::str_ne(&s0.get(), &s1.get()) }),
            ]),
            rt::product(vec![
                rt::bind(tmps[19].clone(), rt::to_range(Cell(env.slot(0, 0)) /* a */, Cell(env.slot(0, 0)) /* a */, Const(Value::from(1i64)))),
                rt::thunk({ let s0 = Cell(tmps[19].clone()); let s1 = Cell(env.slot(0, 1)) /* b */; move || gde::ops::equiv(&s0.get(), &s1.get()) }),
            ]),
        ]),
    ], flags[0].clone()))
}

pub fn proc_zero(globals: &Env) -> ProcValue {
    rt::proc(globals, "zero", [], 0, 0, 1, |env, tmps, flags| rt::body_root(vec![
        rt::return_gen(Some(rt::atom(Const(Value::from(7i64)))), flags[0].clone()),
    ], flags[0].clone()))
}

pub fn proc_shapes(globals: &Env) -> ProcValue {
    rt::proc(globals, "shapes", ["n", "s", "l", "t", "c"], 2, 25, 1, |env, tmps, flags| rt::body_root(vec![
        rt::mute_once(rt::seq(vec![
            rt::decl(env.slot_local(2) /* l */, None),
            rt::decl(env.slot_local(3) /* t */, None),
            rt::decl(env.slot_local(4) /* c */, None),
        ])),
        rt::alt(vec![
            rt::thunk({ let s0 = Cell(env.slot(0, 0)) /* n */; move || gde::ops::neg(&s0.get()) }),
            rt::thunk({ let s0 = Cell(env.slot(0, 1)) /* s */; move || rt::size(&s0.get()) }),
            rt::product(vec![
                rt::bind(tmps[0].clone(), rt::product(vec![
                    rt::bind(tmps[1].clone(), rt::thunk({ let s0 = Cell(env.slot(0, 0)) /* n */; let s1 = Const(Value::from(1i64)); move || gde::ops::add(&s0.get(), &s1.get()) })),
                    rt::to_range(Cell(env.slot(0, 0)) /* n */, Cell(tmps[1].clone()), Const(Value::from(1i64))),
                ])),
                rt::thunk({ let s0 = Cell(tmps[0].clone()); move || gde::ops::neg(&s0.get()) }),
            ]),
            rt::product(vec![
                rt::bind(tmps[2].clone(), rt::alt(vec![
                    rt::atom(Cell(env.slot(0, 1)) /* s */),
                    rt::atom(Const(Value::str("xy"))),
                ])),
                rt::thunk({ let s0 = Cell(tmps[2].clone()); move || rt::size(&s0.get()) }),
            ]),
        ]),
        rt::mute_once(rt::product(vec![
            rt::bind(tmps[3].clone(), rt::thunk({ move || rt::list(vec![]) })),
            rt::set_var(env.slot(0, 2) /* l */, Cell(tmps[3].clone())),
        ])),
        rt::thunk({ let s0 = Cell(env.slot(0, 2)) /* l */; move || rt::size(&s0.get()) }),
        rt::mute_once(rt::product(vec![
            rt::bind(tmps[4].clone(), rt::thunk({ let s0 = Cell(env.slot(0, 0)) /* n */; let s1 = Const(Value::from(2i64)); move || rt::list(vec![s0.get(), s1.get()]) })),
            rt::set_var(env.slot(0, 2) /* l */, Cell(tmps[4].clone())),
        ])),
        rt::alt(vec![
            rt::thunk({ let s0 = Cell(env.slot(0, 2)) /* l */; let s1 = Const(Value::from(1i64)); move || gde::ops::index(&s0.get(), &s1.get()) }),
            rt::product(vec![
                rt::bind(tmps[5].clone(), rt::to_range(Const(Value::from(1i64)), Const(Value::from(2i64)), Const(Value::from(1i64)))),
                rt::thunk({ let s0 = Cell(env.slot(0, 2)) /* l */; let s1 = Cell(tmps[5].clone()); move || gde::ops::index(&s0.get(), &s1.get()) }),
            ]),
        ]),
        rt::mute_once(rt::thunk({ let s0 = Cell(env.slot(0, 2)) /* l */; let s1 = Const(Value::from(1i64)); let s2 = Const(Value::from(9i64)); move || gde::ops::index_assign(&s0.get(), &s1.get(), s2.get()) })),
        rt::mute_once(rt::product(vec![
            rt::bind(tmps[6].clone(), rt::to_range(Const(Value::from(1i64)), Const(Value::from(2i64)), Const(Value::from(1i64)))),
            rt::bind(tmps[7].clone(), rt::product(vec![
                rt::bind(tmps[8].clone(), rt::thunk({ let s0 = Cell(env.slot(0, 2)) /* l */; let s1 = Const(Value::from(2i64)); move || gde::ops::index(&s0.get(), &s1.get()) })),
                rt::thunk({ let s0 = Cell(tmps[8].clone()); let s1 = Const(Value::from(1i64)); move || gde::ops::add(&s0.get(), &s1.get()) }),
            ])),
            rt::thunk({ let s0 = Cell(env.slot(0, 2)) /* l */; let s1 = Cell(tmps[6].clone()); let s2 = Cell(tmps[7].clone()); move || gde::ops::index_assign(&s0.get(), &s1.get(), s2.get()) }),
        ])),
        rt::promote(Cell(env.slot(0, 2)) /* l */),
        rt::product(vec![
            rt::bind(tmps[9].clone(), rt::product(vec![
                rt::bind(tmps[10].clone(), rt::thunk({ let s0 = Cell(env.slot(0, 0)) /* n */; let s1 = Const(Value::from(1i64)); move || gde::ops::add(&s0.get(), &s1.get()) })),
                rt::bind(tmps[11].clone(), rt::thunk({ let s0 = Cell(env.slot(0, 0)) /* n */; let s1 = Const(Value::from(2i64)); move || gde::ops::add(&s0.get(), &s1.get()) })),
                rt::thunk({ let s0 = Cell(env.slot(0, 0)) /* n */; let s1 = Cell(tmps[10].clone()); let s2 = Cell(tmps[11].clone()); move || rt::list(vec![s0.get(), s1.get(), s2.get()]) }),
            ])),
            rt::promote(Cell(tmps[9].clone())),
        ]),
        rt::mute_once(rt::product(vec![
            rt::bind(tmps[12].clone(), rt::invoke(Cell(env.lookup_or_declare("table")), vec![Const(Value::from(0i64))])),
            rt::set_var(env.slot(0, 3) /* t */, Cell(tmps[12].clone())),
        ])),
        rt::mute_once(rt::thunk({ let s0 = Cell(env.slot(0, 3)) /* t */; let s1 = Const(Value::from(5i64)); move || rt::field_set(&s0.get(), "k", s1.get()) })),
        rt::thunk({ let s0 = Cell(env.slot(0, 3)) /* t */; move || rt::field_get(&s0.get(), "k") }),
        rt::mute_once(rt::product(vec![
            rt::bind(tmps[13].clone(), rt::alt(vec![
                rt::atom(Cell(env.slot(0, 3)) /* t */),
                rt::atom(Cell(env.slot(0, 3)) /* t */),
            ])),
            rt::bind(tmps[14].clone(), rt::product(vec![
                rt::bind(tmps[15].clone(), rt::thunk({ let s0 = Cell(env.slot(0, 3)) /* t */; move || rt::field_get(&s0.get(), "k") })),
                rt::thunk({ let s0 = Cell(tmps[15].clone()); let s1 = Const(Value::from(1i64)); move || gde::ops::add(&s0.get(), &s1.get()) }),
            ])),
            rt::thunk({ let s0 = Cell(tmps[13].clone()); let s1 = Cell(tmps[14].clone()); move || rt::field_set(&s0.get(), "k", s1.get()) }),
        ])),
        rt::product(vec![
            rt::bind(tmps[16].clone(), rt::alt(vec![
                rt::atom(Cell(env.slot(0, 3)) /* t */),
                rt::atom(Cell(env.slot(0, 3)) /* t */),
            ])),
            rt::thunk({ let s0 = Cell(tmps[16].clone()); move || rt::field_get(&s0.get(), "k") }),
        ]),
        rt::alt(vec![
            rt::thunk({ let s0 = Cell(env.slot(0, 1)) /* s */; move || rt::native_method(&s0.get(), "size", &[]) }),
            rt::thunk({ let s0 = Cell(env.slot(0, 1)) /* s */; let s1 = Const(Value::from(1i64)); move || rt::native_method(&s0.get(), "charAt", &[s1.get()]) }),
            rt::product(vec![
                rt::bind(tmps[17].clone(), rt::alt(vec![
                    rt::atom(Cell(env.slot(0, 1)) /* s */),
                    rt::atom(Const(Value::str("xy"))),
                ])),
                rt::thunk({ let s0 = Cell(tmps[17].clone()); move || rt::native_method(&s0.get(), "size", &[]) }),
            ]),
            rt::product(vec![
                rt::bind(tmps[18].clone(), rt::alt(vec![
                    rt::atom(Cell(env.slot(0, 1)) /* s */),
                    rt::atom(Const(Value::str("xy"))),
                ])),
                rt::bind(tmps[19].clone(), rt::to_range(Const(Value::from(0i64)), Const(Value::from(1i64)), Const(Value::from(1i64)))),
                rt::thunk({ let s0 = Cell(tmps[18].clone()); let s1 = Cell(tmps[19].clone()); move || rt::native_method(&s0.get(), "charAt", &[s1.get()]) }),
            ]),
        ]),
        rt::invoke(Cell(env.lookup_or_declare("zero")), vec![]),
        rt::mute_once(rt::product(vec![
            rt::bind(tmps[20].clone(), rt::co_create(&env, |env| {
                let tmps = rt::tmps(25);
                let flags = rt::flags(1);
                rt::product(vec![
                    rt::bind(tmps[21].clone(), rt::thunk({ let s0 = Cell(env.lookup_or_declare("n")); let s1 = Const(Value::from(3i64)); move || gde::ops::add(&s0.get(), &s1.get()) })),
                    rt::to_range(Cell(env.lookup_or_declare("n")), Cell(tmps[21].clone()), Const(Value::from(1i64))),
                ])
            })),
            rt::set_var(env.slot(0, 4) /* c */, Cell(tmps[20].clone())),
        ])),
        rt::thunk({ let s0 = Cell(env.slot(0, 4)) /* c */; move || coexpr::activate(&s0.get()) }),
        rt::product(vec![
            rt::bind(tmps[22].clone(), rt::to_range(Const(Value::from(1i64)), Const(Value::from(2i64)), Const(Value::from(1i64)))),
            rt::bind(tmps[23].clone(), rt::thunk({ let s0 = Cell(env.slot(0, 4)) /* c */; move || coexpr::activate(&s0.get()) })),
            rt::thunk({ let s0 = Cell(tmps[22].clone()); let s1 = Cell(tmps[23].clone()); move || gde::ops::add(&s0.get(), &s1.get()) }),
        ]),
        rt::product(vec![
            rt::bind(tmps[24].clone(), rt::thunk({ let s0 = Cell(env.slot(0, 4)) /* c */; move || coexpr::refresh(&s0.get()) })),
            rt::thunk({ let s0 = Cell(tmps[24].clone()); move || coexpr::activate(&s0.get()) }),
        ]),
    ], flags[0].clone()))
}

pub fn proc_control(globals: &Env) -> ProcValue {
    rt::proc(globals, "control", ["n", "s", "i", "x", "c"], 2, 6, 5, |env, tmps, flags| rt::body_root(vec![
        rt::mute_once(rt::seq(vec![
            rt::decl(env.slot_local(2) /* i */, None),
            rt::decl(env.slot_local(3) /* x */, None),
            rt::decl(env.slot_local(4) /* c */, None),
        ])),
        rt::mute_once(rt::set_var(env.slot(0, 2) /* i */, Const(Value::from(0i64)))),
        rt::until_do(
            rt::thunk({ let s0 = Cell(env.slot(0, 2)) /* i */; let s1 = Cell(env.slot(0, 0)) /* n */; move || gde::ops::ge(&s0.get(), &s1.get()) }),
            Some(rt::stmt_seq(vec![
                rt::mute_once(rt::product(vec![
                    rt::bind(tmps[0].clone(), rt::thunk({ let s0 = Cell(env.slot(0, 2)) /* i */; let s1 = Const(Value::from(1i64)); move || gde::ops::add(&s0.get(), &s1.get()) })),
                    rt::set_var(env.slot(0, 2) /* i */, Cell(tmps[0].clone())),
                ])),
                rt::if_gen(
                    rt::thunk({ let s0 = Cell(env.slot(0, 2)) /* i */; let s1 = Const(Value::from(2i64)); move || gde::ops::num_eq(&s0.get(), &s1.get()) }),
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
                    rt::bind(tmps[1].clone(), rt::thunk({ let s0 = Cell(env.slot(0, 2)) /* i */; let s1 = Const(Value::from(1i64)); move || gde::ops::sub(&s0.get(), &s1.get()) })),
                    rt::set_var(env.slot(0, 2) /* i */, Cell(tmps[1].clone())),
                ])),
                rt::if_gen(
                    rt::thunk({ let s0 = Cell(env.slot(0, 2)) /* i */; let s1 = Const(Value::from(1i64)); move || gde::ops::lt(&s0.get(), &s1.get()) }),
                    rt::flag_fail(flags[3].clone()),
                    None,
                ),
                rt::thunk({ let s0 = Cell(env.slot(0, 2)) /* i */; move || gde::ops::neg(&s0.get()) }),
            ], vec![flags[0].clone(), flags[3].clone(), flags[4].clone()])),
            flags[3].clone(),
            flags[4].clone(),
            vec![flags[0].clone()],
        ),
        rt::dyn_limit(Cell(env.slot(0, 0)) /* n */, rt::to_range(Const(Value::from(1i64)), Const(Value::from(10i64)), Const(Value::from(1i64)))),
        rt::if_gen(
            rt::not(rt::thunk({ let s0 = Cell(env.slot(0, 0)) /* n */; let s1 = Const(Value::from(0i64)); move || gde::ops::lt(&s0.get(), &s1.get()) })),
            rt::atom(Const(Value::str("pos"))),
            Some(rt::atom(Const(Value::str("neg")))),
        ),
        rt::mute_once(rt::set_var(env.slot(0, 3) /* x */, Const(Value::from(1i64)))),
        rt::product(vec![
            rt::rev_set(env.slot(0, 3) /* x */, Const(Value::from(5i64))),
            rt::thunk({ let s0 = Cell(env.slot(0, 3)) /* x */; let s1 = Const(Value::from(9i64)); move || gde::ops::gt(&s0.get(), &s1.get()) }),
        ]),
        rt::atom(Cell(env.slot(0, 3)) /* x */),
        rt::scan_gen(
            rt::atom(Cell(env.slot(0, 1)) /* s */),
            rt::seq(vec![
                rt::mute_once(rt::invoke(Cell(env.lookup_or_declare("tab")), vec![Const(Value::from(3i64))])),
                rt::product(vec![
                    rt::bind(tmps[2].clone(), rt::atom(ScanSubject)),
                    rt::bind(tmps[3].clone(), rt::atom(ScanPos)),
                    rt::thunk({ let s0 = Cell(tmps[2].clone()); let s1 = Cell(tmps[3].clone()); move || gde::ops::concat(&s0.get(), &s1.get()) }),
                ]),
            ]),
        ),
        rt::mute_once(rt::product(vec![
            rt::bind(tmps[4].clone(), rt::co_create_shadowed(&env, |env| {
                let tmps = rt::tmps(6);
                let flags = rt::flags(1);
                rt::product(vec![
                    rt::bind(tmps[5].clone(), rt::thunk({ let s0 = Cell(env.lookup_or_declare("x")); let s1 = Cell(env.lookup_or_declare("n")); move || gde::ops::add(&s0.get(), &s1.get()) })),
                    rt::set_var(env.lookup_or_declare("x"), Cell(tmps[5].clone())),
                ])
            })),
            rt::set_var(env.slot(0, 4) /* c */, Cell(tmps[4].clone())),
        ])),
        rt::alt(vec![
            rt::thunk({ let s0 = Cell(env.slot(0, 4)) /* c */; move || coexpr::activate(&s0.get()) }),
            rt::atom(Cell(env.slot(0, 3)) /* x */),
        ]),
        rt::thunk({ let s0 = rt::slot_big("12345678901234567890123"); let s1 = Cell(env.slot(0, 0)) /* n */; move || gde::ops::add(&s0.get(), &s1.get()) }),
        rt::if_gen(
            rt::thunk({ let s0 = Cell(env.slot(0, 0)) /* n */; let s1 = Const(Value::from(3i64)); move || gde::ops::gt(&s0.get(), &s1.get()) }),
            rt::flag_fail(flags[0].clone()),
            None,
        ),
        rt::return_gen(Some(rt::product(vec![
            rt::atom(Cell(env.slot(0, 0)) /* n */),
            rt::thunk({ let s0 = Cell(env.slot(0, 0)) /* n */; let s1 = Const(Value::from(1i64)); move || gde::ops::add(&s0.get(), &s1.get()) }),
        ])), flags[0].clone()),
    ], flags[0].clone()))
}

pub fn proc_deferred(globals: &Env) -> ProcValue {
    rt::proc(globals, "deferred", ["n", "t", "c", "i"], 1, 5, 3, |env, tmps, flags| rt::body_root(vec![
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
                                    rt::thunk({ let s0 = Cell(env.lookup_or_declare("x")); let s1 = Cell(tmps[3].clone()); move || gde::ops::add(&s0.get(), &s1.get()) }),
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
                            rt::thunk({ let s0 = Cell(env.lookup_or_declare("i")); let s1 = Const(Value::from(10i64)); move || gde::ops::mul(&s0.get(), &s1.get()) }),
                        ])
                    })),
                    rt::set_var(env.slot(0, 2) /* c */, Cell(tmps[4].clone())),
                ])),
                rt::thunk({ let s0 = Cell(env.slot(0, 2)) /* c */; move || coexpr::activate(&s0.get()) }),
            ], vec![flags[0].clone(), flags[1].clone(), flags[2].clone()])),
            flags[1].clone(),
            flags[2].clone(),
            vec![flags[0].clone()],
        ),
    ], flags[0].clone()))
}

pub fn install(globals: &Env) {
    rt::install(globals, &[proc_binops, proc_zero, proc_shapes, proc_control, proc_deferred]);
}

pub fn toplevel(globals: &Env) {}
