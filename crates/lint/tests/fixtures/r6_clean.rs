// R6 fixture: tasks that end on their own, `process::abort`, and test
// code are fine.
pub fn stop(done: &std::sync::atomic::AtomicBool) {
    done.store(true, std::sync::atomic::Ordering::Relaxed);
}

pub fn die() -> ! {
    std::process::abort()
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_abort_probes() {
        let probe = tokio::spawn(async {});
        probe.abort();
    }
}
