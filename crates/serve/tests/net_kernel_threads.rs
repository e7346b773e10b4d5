//! `NetServer::start` must apply `base.kernel_threads` to the shared
//! kernel pool, exactly as `Server::start` does. The pool is
//! process-global and first-configuration-wins, so this check lives in a
//! test binary of its own: nothing else here touches the pool first.

use seal_serve::{NetServer, NetServerConfig};

#[test]
fn net_server_start_configures_the_kernel_pool() {
    if std::env::var_os("SEAL_THREADS").is_some() {
        // The environment pins the pool; there is nothing to observe.
        return;
    }
    let mut config = NetServerConfig::smoke(1);
    config.base.kernel_threads = 3;
    let server = NetServer::start(config).unwrap();
    assert_eq!(seal_pool::current_threads(), 3);
    server.shutdown().unwrap();
}
