//! User-mode instructions retired, from the CPU's hardware counter through
//! Linux `perf_event_open`.
//!
//! The benchmark gates on instructions rather than on wall time because on
//! a shared host a neighbour's load changes how many instructions a core
//! retires per clock: on a 2-vCPU AMD EPYC virtual machine, the same
//! `uniform-4k` major cycle (4.68 G instructions, within 0.1% each time)
//! took 123 to 266 ms within one minute, at a steady clock near 4.6 GHz,
//! and 113 ms when the host was quiet. The instruction count of a fixed
//! input does not depend on that load.
//!
//! A counter counts the thread that opens it and every thread that thread
//! starts afterwards, so work a backend or server moves onto threads of its
//! own is still counted. It needs `perf_event_paranoid` at 2 or lower and
//! a CPU counter the kernel exposes; without one the benchmark fails rather
//! than report something else.

use std::ffi::c_long;
use std::fs::File;
use std::io::Read;
use std::os::fd::FromRawFd;

extern "C" {
    fn syscall(number: c_long, ...) -> c_long;
}

#[cfg(target_arch = "x86_64")]
const SYS_PERF_EVENT_OPEN: Option<c_long> = Some(298);
#[cfg(target_arch = "aarch64")]
const SYS_PERF_EVENT_OPEN: Option<c_long> = Some(241);
#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
const SYS_PERF_EVENT_OPEN: Option<c_long> = None;

/// `PERF_TYPE_HARDWARE`, `PERF_COUNT_HW_INSTRUCTIONS`.
const HARDWARE: u32 = 0;
const INSTRUCTIONS: u64 = 1;
/// `PERF_ATTR_SIZE_VER0`: every field used here lies in the first version
/// of `struct perf_event_attr`, which every kernel accepts.
const ATTR_SIZE: usize = 64;
/// `read_format`: the count is followed by the time the counter was
/// enabled and the time it was counting.
const TOTAL_TIMES: u64 = 0b11;
/// Flag bits: `inherit`, `exclude_kernel`, `exclude_hv`.
const FLAGS: u64 = (1 << 1) | (1 << 5) | (1 << 6);

/// An open, counting instruction counter.
pub struct Instructions(File);

impl Instructions {
    /// Start counting the user-mode instructions of the calling thread and
    /// of every thread it starts from now on.
    pub fn open() -> Result<Instructions, String> {
        let number = SYS_PERF_EVENT_OPEN.ok_or("no instruction counter on this architecture")?;
        // struct perf_event_attr, VER0 layout: type, size, config,
        // sample_period, sample_type, read_format, flag bits, the rest 0.
        let mut attr = [0u8; ATTR_SIZE];
        attr[0..4].copy_from_slice(&HARDWARE.to_ne_bytes());
        attr[4..8].copy_from_slice(&(ATTR_SIZE as u32).to_ne_bytes());
        attr[8..16].copy_from_slice(&INSTRUCTIONS.to_ne_bytes());
        attr[32..40].copy_from_slice(&TOTAL_TIMES.to_ne_bytes());
        attr[40..48].copy_from_slice(&FLAGS.to_ne_bytes());
        // SAFETY: perf_event_open(attr, pid 0 = this thread, cpu -1 = any,
        // group -1 = none, flags 0) reads ATTR_SIZE bytes from `attr`, which
        // is that long and outlives the call, and touches no other memory.
        let fd = unsafe { syscall(number, attr.as_ptr(), 0i32, -1i32, -1i32, 0u64) };
        if fd < 0 {
            return Err(format!(
                "no hardware instruction counter (perf_event_open: {})",
                std::io::Error::last_os_error()
            ));
        }
        let fd = i32::try_from(fd).map_err(|_| "perf_event_open returned no descriptor")?;
        // SAFETY: `fd` is a descriptor the kernel just opened for this
        // process and nothing else owns; the File closes it on drop.
        Ok(Instructions(unsafe { File::from_raw_fd(fd) }))
    }

    /// The count and its enabled and counting times, ns.
    fn values(&self) -> [u64; 3] {
        let mut buf = [0u8; 24];
        (&self.0)
            .read_exact(&mut buf)
            .expect("an open perf counter is always readable");
        let mut words = [0u64; 3];
        for (w, b) in words.iter_mut().zip(buf.chunks_exact(8)) {
            *w = u64::from_ne_bytes(b.try_into().expect("8-byte chunk"));
        }
        words
    }

    /// Instructions counted since [`Instructions::open`].
    pub fn read(&self) -> u64 {
        self.values()[0]
    }

    /// An error when the kernel ever took the hardware counter away to
    /// share it with other counters: the counts then have gaps.
    pub fn check(&self) -> Result<(), String> {
        let [_, enabled, running] = self.values();
        if running < enabled {
            return Err(format!(
                "the instruction counter counted {running} of {enabled} ns (multiplexed)"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    fn spin(n: u64) -> u64 {
        (0..n).fold(0u64, |a, i| black_box(a.wrapping_mul(31).wrapping_add(i)))
    }

    #[test]
    fn counts_grow_with_the_work_and_cover_started_threads() {
        // Hosts without a counter cannot run the benchmark; nothing to test.
        let Ok(counter) = Instructions::open() else {
            return;
        };
        let before = counter.read();
        spin(1_000_000);
        let one = counter.read() - before;
        spin(10_000_000);
        let eleven = counter.read() - before;
        assert!(one >= 1_000_000 && eleven > 8 * one, "{one} {eleven}");
        // A thread started after the counter opened is counted too.
        let before = counter.read();
        std::thread::spawn(|| spin(10_000_000)).join().unwrap();
        assert!(counter.read() - before >= 10_000_000);
        counter.check().unwrap();
    }
}
