// R6 fixture: a justified escape hatch suppresses the diagnostic.
pub fn stop(task: &tokio::task::JoinHandle<()>) {
    task.abort(); // ldp-lint: allow(r6) -- the task exits with the process
    // ldp-lint: allow(detached-task) -- fixture exercises the alias form
    task.abort();
}
