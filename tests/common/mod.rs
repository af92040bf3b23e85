//! Helpers shared by the socket tests.

use std::path::Path;
use std::time::{Duration, Instant};

use repute_serve::transport::submit_over_socket;

/// How long a test waits for its daemon thread to answer: a loaded debug
/// run can spend seconds building the daemon's index before it binds.
const BIND_DEADLINE: Duration = Duration::from_secs(60);

/// Waits until the daemon at `socket` answers. It connects, again every
/// 10 ms until one succeeds, as a client with no requests, and returns
/// once the daemon has closed that connection: the empty connection's
/// EOF is handled before a test's own clients connect, so it cannot fall
/// between their lines and split a batch.
///
/// # Panics
///
/// When no connection succeeds within [`BIND_DEADLINE`].
pub fn wait_for_daemon(socket: &Path) {
    let deadline = Instant::now() + BIND_DEADLINE;
    loop {
        match submit_over_socket(socket, &[]) {
            Ok(_) => return,
            Err(e) if Instant::now() >= deadline => panic!(
                "no daemon answered at {} within {BIND_DEADLINE:?}: {e}",
                socket.display()
            ),
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}
