// R7 fixture: the time comes in as an argument and the I/O goes out as
// an action; comments, strings and test code may name the clock.
pub enum Action {
    Send(u32),
    Wait(u64),
}

pub fn poll(now_ns: u64, deadline_ns: u64) -> Action {
    if deadline_ns > now_ns {
        Action::Wait(deadline_ns)
    } else {
        Action::Send(0)
    }
}

/// The driver calls `Instant::now()` and awaits its `UdpSocket`.
pub const NOTE: &str = "tokio::net::UdpSocket, Instant::now(), .await";

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_read_the_clock() {
        let t = std::time::Instant::now();
        assert!(t.elapsed().as_secs() < 60);
    }
}
