//! Fixture: unsafe-safety rule. Seeded violations on lines 5, 11, 14, 19.

fn peek(p: *const u64) -> u64 {
    let _ok = unsafe_helper(); // allowed: an identifier, not the keyword
    unsafe { *p } // VIOLATION: no SAFETY comment
}

fn read_justified(p: *const u64) -> u64 {
    // SAFETY: the caller passes a live, aligned pointer.
    let a = unsafe { *p }; // allowed: justified directly above
    let b = unsafe { *p }; // VIOLATION: the comment above belongs to `a`
    let c = unsafe { *p }; // SAFETY: same-line justification is fine too
    let s = "unsafe { *p }"; // allowed: inside a string literal
    a + b + c + s.len() as u64 + unsafe{ *p } // VIOLATION: no space is still a block
}

struct Raw(*const u64);

unsafe impl Send for Raw {} // VIOLATION: unsafe impl

/// Reads `p`.
///
/// # Safety
///
/// SAFETY: `p` must be live and aligned; a doc comment run counts.
unsafe fn documented(p: *const u64) -> u64 {
    // SAFETY: forwarded from this fn's contract.
    unsafe { *p }
}

fn unsafe_helper() -> u64 {
    0
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_is_exempt() {
        let x = 1u64;
        assert_eq!(unsafe { *(&x as *const u64) }, 1); // allowed: test code
    }
}
