// Generated by junicon::emit — do not edit.
#![allow(unused, nonstandard_style, clippy::all)]

use gde::{env::Env, ProcValue, Value};
use junicon::rt::{self, Slot::*};

pub fn proc_spawnMap(globals: &Env) -> ProcValue {
    rt::proc(globals, "spawnMap", ["f", "chunk"], 2, 2, 1, |env, tmps, flags| rt::body_root(vec![
        rt::product(vec![
            rt::bind(tmps[0].clone(), rt::pipe(&env, |env| {
                let tmps = rt::tmps(2);
                let flags = rt::flags(1);
                rt::product(vec![
                    rt::bind(tmps[1].clone(), rt::promote(Cell(env.lookup_or_declare("chunk")))),
                    rt::invoke(Cell(env.lookup_or_declare("f")), vec![Cell(tmps[1].clone())]),
                ])
            })),
            rt::promote(Cell(tmps[0].clone())),
        ]),
    ], flags[0].clone()))
}

pub fn install(globals: &Env) {
    rt::install(globals, &[proc_spawnMap]);
}

pub fn toplevel(globals: &Env) {}
