//! Known-bad: a job submitted to a stream that blocks on an event a later
//! job of the same stream records. The stream's only thread parks in
//! `wait`, so the recording job never runs — self-deadlock. Expected:
//! `scope-blocking` at the `submit` call.

pub fn worker_waits_on_sibling(rs: &RuntimeScope, ev: &Event) {
    rs.submit(0, 0, move || ev.wait());
}
