//! Summary sanitizers apply to method calls: the workspace `keylint.toml`
//! lists `create_file` under `[summaries] sanitizers` (its result is an
//! opaque file handle), and every real call site is a method call,
//! `kernel.create_file(..)`. While the entry applied only to free-function
//! calls, the handle below stayed tainted by its secret argument and both
//! uses of it fired.

fn sanitized_handle(kernel: &mut Kernel, key: RsaPrivateKey) {
    let fid = kernel.create_file("/etc/key.pem", key.d());
    println!("fid = {:?}", fid);
    log_value(&fid);
}

fn unsanitized_method_taints(store: &mut Store, key: RsaPrivateKey) {
    let copy = store.keep(key.d());
    println!("copy = {:?}", copy); //~ S004
}
