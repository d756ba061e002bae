//! Shared plumbing for the experiment binaries: a tiny argument parser,
//! dataset construction (real CIFAR-10 if present, synthetic otherwise),
//! markdown table rendering and JSON result persistence.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper; see DESIGN.md §4 for the index.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod results;

pub use results::{write_results, write_results_json, RESULTS_SCHEMA};

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use stsl_data::{cifar, ImageDataset, SyntheticCifar};

/// Minimal `--key value` / `--flag` argument parser.
///
/// # Examples
///
/// ```
/// use stsl_bench::Args;
///
/// let args = Args::parse_from(vec!["--epochs".into(), "5".into(), "--quick".into()]);
/// assert_eq!(args.get_usize("epochs", 10), 5);
/// assert!(args.get_flag("quick"));
/// assert_eq!(args.get_f32("lr", 0.01), 0.01);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: BTreeMap<String, String>,
    flags: Vec<String>,
}

/// A malformed command-line value: which flag, and what was wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError {
    /// The flag (without the leading `--`) whose value failed to parse.
    pub flag: String,
    /// Human-readable description of the problem.
    pub message: String,
}

impl std::fmt::Display for UsageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "usage error: {}", self.message)
    }
}

impl std::error::Error for UsageError {}

impl UsageError {
    /// Prints the error to stderr and exits with the conventional usage
    /// status code 2 (never returns).
    pub fn exit(&self) -> ! {
        eprintln!("{}", self);
        std::process::exit(2);
    }
}

impl Args {
    /// Parses the process arguments (skipping `argv[0]`).
    pub fn parse() -> Self {
        Args::parse_from(std::env::args().skip(1).collect())
    }

    /// Parses an explicit token list.
    pub fn parse_from(tokens: Vec<String>) -> Self {
        let mut args = Args::default();
        let mut i = 0;
        while i < tokens.len() {
            let tok = &tokens[i];
            let Some(name) = tok.strip_prefix("--") else {
                eprintln!("ignoring stray argument {:?}", tok);
                i += 1;
                continue;
            };
            if i + 1 < tokens.len() && !tokens[i + 1].starts_with("--") {
                args.values.insert(name.to_string(), tokens[i + 1].clone());
                i += 2;
            } else {
                args.flags.push(name.to_string());
                i += 1;
            }
        }
        args
    }

    /// Integer option with default, reporting an unparsable value as a
    /// [`UsageError`] naming the offending flag.
    ///
    /// # Errors
    ///
    /// Returns [`UsageError`] when the value is present but not an integer.
    pub fn try_usize(&self, name: &str, default: usize) -> Result<usize, UsageError> {
        self.try_parse(name, default, "an integer")
    }

    /// Float option with default.
    ///
    /// # Errors
    ///
    /// Returns [`UsageError`] when the value is present but not a number.
    pub fn try_f32(&self, name: &str, default: f32) -> Result<f32, UsageError> {
        self.try_parse(name, default, "a number")
    }

    /// u64 option with default.
    ///
    /// # Errors
    ///
    /// Returns [`UsageError`] when the value is present but not an integer.
    pub fn try_u64(&self, name: &str, default: u64) -> Result<u64, UsageError> {
        self.try_parse(name, default, "an integer")
    }

    fn try_parse<T: std::str::FromStr>(
        &self,
        name: &str,
        default: T,
        expected: &str,
    ) -> Result<T, UsageError> {
        match self.values.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| UsageError {
                flag: name.to_string(),
                message: format!("--{} expects {}, got {:?}", name, expected, v),
            }),
        }
    }

    /// Integer option with default; exits with a usage error (code 2) on
    /// an unparsable value.
    pub fn get_usize(&self, name: &str, default: usize) -> usize {
        self.try_usize(name, default).unwrap_or_else(|e| e.exit())
    }

    /// Float option with default; exits with a usage error (code 2) on an
    /// unparsable value.
    pub fn get_f32(&self, name: &str, default: f32) -> f32 {
        self.try_f32(name, default).unwrap_or_else(|e| e.exit())
    }

    /// u64 option with default; exits with a usage error (code 2) on an
    /// unparsable value.
    pub fn get_u64(&self, name: &str, default: u64) -> u64 {
        self.try_u64(name, default).unwrap_or_else(|e| e.exit())
    }

    /// String option with default.
    pub fn get_str(&self, name: &str, default: &str) -> String {
        self.values
            .get(name)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// Boolean flag.
    pub fn get_flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }
}

/// Where experiment outputs land (`results/` at the workspace root, or
/// `$STSL_RESULTS`).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("STSL_RESULTS").unwrap_or_else(|_| "results".to_string());
    let path = PathBuf::from(dir);
    std::fs::create_dir_all(&path).expect("create results directory");
    path
}

/// The training/evaluation data for an experiment: real CIFAR-10 when the
/// binary directory is available (point `STSL_CIFAR_DIR` or pass a path),
/// the synthetic generator otherwise (see DESIGN.md §2).
///
/// `difficulty` is the synthetic generator's pixel-noise level (ignored
/// for real CIFAR-10); the Table I experiments use ~0.35 so the accuracy
/// ceiling sits near the paper's ~71 % rather than saturating.
pub fn load_data(
    train_n: usize,
    test_n: usize,
    side: usize,
    seed: u64,
    difficulty: f32,
) -> (ImageDataset, ImageDataset, &'static str) {
    if side == 32 {
        if let Ok(dir) = std::env::var("STSL_CIFAR_DIR") {
            if cifar::is_available(&dir) {
                let (train, test) = cifar::load_dir(Path::new(&dir)).expect("load cifar");
                let train_idx: Vec<usize> = (0..train.len().min(train_n)).collect();
                let test_idx: Vec<usize> = (0..test.len().min(test_n)).collect();
                return (train.subset(&train_idx), test.subset(&test_idx), "cifar10");
            }
        }
    }
    let train = SyntheticCifar::new(seed)
        .difficulty(difficulty)
        .generate_sized(train_n, side);
    let test = SyntheticCifar::new(seed ^ 0xDEAD_BEEF)
        .difficulty(difficulty)
        .generate_sized(test_n, side);
    (train, test, "synthetic")
}

/// The fixed dataset both `scale_sweep` and `fleet_sweep` use for their
/// shared 64-client cohort-path row (E16's cross-validation point).
/// Always synthetic (side 16 never hits the CIFAR path), so the
/// overlapping row is byte-comparable across machines and environments.
pub fn crossval_fleet_data() -> (ImageDataset, ImageDataset) {
    let seed = stsl_split::FleetConfig::crossval64().seed;
    let (train, test, _) = load_data(320, 120, 16, seed, 0.12);
    (train, test)
}

/// Runs the shared 64-client / 4-cohort fleet configuration on the
/// shared dataset — the exact computation whose results must agree
/// between `results/scale.json` and `results/fleet.json`.
pub fn crossval_fleet_report() -> stsl_split::FleetReport {
    let (train, test) = crossval_fleet_data();
    let mut fleet = stsl_split::FleetTrainer::new(stsl_split::FleetConfig::crossval64(), &train)
        .expect("crossval64 config is valid");
    fleet.run(&test)
}

/// Renders a markdown table with padded columns.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| -> String {
        let padded: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<w$}", c, w = widths.get(i).copied().unwrap_or(0)))
            .collect();
        format!("| {} |", padded.join(" | "))
    };
    let mut out = String::new();
    out.push_str(&fmt_row(
        &headers.iter().map(|h| h.to_string()).collect::<Vec<_>>(),
    ));
    out.push('\n');
    let sep: Vec<String> = widths.iter().map(|&w| "-".repeat(w)).collect();
    out.push_str(&fmt_row(&sep));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_values_and_flags() {
        let a = Args::parse_from(vec![
            "--epochs".into(),
            "3".into(),
            "--quick".into(),
            "--lr".into(),
            "0.5".into(),
        ]);
        assert_eq!(a.get_usize("epochs", 1), 3);
        assert_eq!(a.get_f32("lr", 0.0), 0.5);
        assert!(a.get_flag("quick"));
        assert!(!a.get_flag("full"));
        assert_eq!(a.get_str("mode", "default"), "default");
    }

    #[test]
    fn args_negative_like_tokens() {
        let a = Args::parse_from(vec!["--seed".into(), "42".into(), "--verbose".into()]);
        assert_eq!(a.get_u64("seed", 0), 42);
        assert!(a.get_flag("verbose"));
    }

    #[test]
    fn malformed_values_are_usage_errors_naming_the_flag() {
        let a = Args::parse_from(vec![
            "--epochs".into(),
            "three".into(),
            "--lr".into(),
            "fast".into(),
        ]);
        let err = a.try_usize("epochs", 1).unwrap_err();
        assert_eq!(err.flag, "epochs");
        assert!(err.to_string().contains("--epochs"));
        assert!(err.to_string().contains("integer"));
        let err = a.try_f32("lr", 0.1).unwrap_err();
        assert_eq!(err.flag, "lr");
        assert!(err.to_string().contains("--lr"));
        let err = a.try_u64("epochs", 0).unwrap_err();
        assert_eq!(err.flag, "epochs");
        // Absent or well-formed values never error.
        assert_eq!(a.try_usize("batch", 16).unwrap(), 16);
        let ok = Args::parse_from(vec!["--epochs".into(), "7".into()]);
        assert_eq!(ok.try_usize("epochs", 1).unwrap(), 7);
    }

    #[test]
    fn synthetic_data_fallback() {
        let (train, test, source) = load_data(20, 10, 16, 0, 0.1);
        assert_eq!(train.len(), 20);
        assert_eq!(test.len(), 10);
        assert_eq!(source, "synthetic");
    }

    #[test]
    fn table_renders_with_padding() {
        let table = render_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "2".into()],
            ],
        );
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert_eq!(lines[2].len(), lines[3].len());
    }
}
