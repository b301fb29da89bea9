//! Reference outputs: each suite program's completion value and `print`
//! output under the baseline interpreter (`Engine::Interp`), the
//! semantic oracle every benchmarked eval is checked against.
//!
//! The table is `reference.json` in this directory, compiled into the
//! binary. Regenerate it with `perfbench --write-reference
//! perfbench/reference.json`.

use std::collections::HashMap;

use tm_core::{Engine, Vm};
use tm_support::Json;

/// What one program must produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    /// The completion value, as displayed.
    pub value: String,
    /// Everything the program printed.
    pub output: String,
}

/// The reference table, keyed by program name.
#[derive(Debug)]
pub struct Reference {
    by_name: HashMap<String, Expected>,
}

const TABLE: &str = include_str!("../reference.json");

impl Reference {
    /// Loads the compiled-in table.
    ///
    /// # Errors
    ///
    /// Returns a message when the table is malformed.
    pub fn load() -> Result<Reference, String> {
        let doc = Json::parse(TABLE).map_err(|e| format!("reference.json: {e}"))?;
        let progs = doc
            .get("programs")
            .and_then(Json::as_array)
            .ok_or("reference.json: no programs array")?;
        let mut by_name = HashMap::new();
        for p in progs {
            let field = |k: &str| {
                p.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_owned)
                    .ok_or(format!("reference.json: entry without {k}"))
            };
            by_name.insert(
                field("name")?,
                Expected {
                    value: field("value")?,
                    output: field("output")?,
                },
            );
        }
        Ok(Reference { by_name })
    }

    /// The expected result of `name`.
    pub fn get(&self, name: &str) -> Option<&Expected> {
        self.by_name.get(name)
    }
}

/// Runs every suite program under the interpreter and renders the table.
///
/// # Errors
///
/// Returns a message when a program fails under the interpreter.
pub fn generate() -> Result<String, String> {
    let mut entries = Vec::new();
    for prog in tm_bench::SUITE {
        let mut vm = Vm::new(Engine::Interp);
        vm.set_cache_path(None);
        let v = vm
            .eval(prog.source)
            .map_err(|e| format!("{}: {e}", prog.name))?;
        let value = tm_runtime::ops::to_display(&mut vm.realm, v);
        entries.push(Json::obj([
            ("name", Json::Str(prog.name.to_owned())),
            ("value", Json::Str(value)),
            ("output", Json::Str(vm.output().to_owned())),
        ]));
    }
    let doc = Json::obj([
        ("engine", Json::Str("Interp".to_owned())),
        ("programs", Json::Array(entries)),
    ]);
    Ok(doc.to_string_pretty() + "\n")
}
