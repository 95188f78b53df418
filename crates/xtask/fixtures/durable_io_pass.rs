//~ crate: core
//~ path: crates/core/src/fixture.rs

pub fn durable_metrics(doc: &str) -> Result<(), rejecto_core::RuntimeError> {
    rejecto_core::store::atomic_write(std::path::Path::new("metrics.json"), doc.as_bytes())
}

pub fn reads_are_fine(path: &std::path::Path) -> std::io::Result<String> {
    std::fs::read_to_string(path)
}

pub fn dir_setup(path: &std::path::Path) -> std::io::Result<()> {
    std::fs::create_dir_all(path)
}

pub fn reasoned_scratch(doc: &str) {
    std::fs::write("probe.tmp", doc).ok(); // xtask-allow: durable-io: liveness probe file, rebuilt every run and never read back
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_write_fixtures_raw() {
        std::fs::write("fixture.json", b"{}").ok();
        let _ = std::fs::File::create("scratch.bin");
    }
}
