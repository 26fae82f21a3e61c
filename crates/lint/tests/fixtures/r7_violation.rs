// R7 fixture: clock reads, runtime paths, socket types and awaits in
// sans-I/O core code.
pub fn started() -> std::time::Instant {
    std::time::Instant::now()
}
pub fn wall() -> std::time::SystemTime {
    std::time::SystemTime::now()
}
pub async fn pause(d: std::time::Duration) {
    let sleep = tokio::time::sleep(d);
    sleep.await
}
pub fn bind() -> std::io::Result<std::net::UdpSocket> {
    std::net::UdpSocket::bind("127.0.0.1:0")
}
