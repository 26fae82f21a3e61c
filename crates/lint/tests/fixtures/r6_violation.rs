// R6 fixture: aborting task handles outside test code.
pub fn stop(reader: &tokio::task::JoinHandle<()>, tasks: &[tokio::task::JoinHandle<()>]) {
    reader.abort();
    for t in tasks {
        t.abort();
    }
}
