//! Known-bad: a job submitted to a stream that blocks on a launch queued
//! behind it on the same stream. The stream's only thread parks in
//! `wait`, so the launch never runs — self-deadlock. Expected:
//! `scope-blocking` at the `submit` call.

pub fn worker_waits_on_sibling(rs: &RuntimeScope, handle: LaunchHandle<u32>) {
    rs.submit(0, 0, move || handle.wait());
}
