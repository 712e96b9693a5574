//! Module-qualified call resolution: `interproc_helpers::log_value(…)`
//! names the helper file's module and must resolve to the same summary as
//! the bare `log_value(…)` spelling. While the qualifier was matched only
//! against `impl` owners these calls stayed unresolved — both call-site
//! sinks below were invisible, and the clean summary helper was a false
//! positive (legacy argument passthrough tainted its result).

fn module_qualified_sink(key: RsaPrivateKey) {
    let tmp = key.d();
    interproc_helpers::log_value(&tmp); //~ S008
}

fn crate_path_sink(key: RsaPrivateKey) {
    let tmp = key.d();
    crate::interproc_helpers::log_value(&tmp); //~ S008
}

fn module_qualified_clean(key: RsaPrivateKey) {
    let n = interproc_helpers::digest_len(&key.d());
    println!("n = {}", n);
}
