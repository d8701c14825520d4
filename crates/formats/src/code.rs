//! The CSS code spec text format and the code-family mini-language.
//!
//! A code spec is a self-contained description of a CSS code:
//!
//! ```text
//! prophunt-code v1
//! name surface_d3
//! n 9
//! distance 3
//! hx 110110000
//! hz 011011000
//! lx 000111000
//! lz 010010010
//! ```
//!
//! * `n` is the number of data qubits; every matrix row must have exactly `n` bits.
//! * `hx` / `hz` rows are the X / Z parity checks (zero rows of either kind are
//!   expressed by simply having no lines of that key — `n` keeps the width known).
//! * `lx` / `lz` rows are optional; when absent, logical operators are derived at
//!   [`CodeSpec::to_code`] time.
//! * `distance` is optional. `#` comments and blank lines are ignored.
//!
//! The *family* mini-language (`surface:3`, `steane`, `repetition:5`,
//! `generalized_bicycle:9:0,1:0,3`, `bivariate_bicycle:6:6:3.0,0.1,0.2:0.3,1.0,2.0`)
//! names the constructors of `prophunt-qec`, so CLI users never have to write the
//! matrices of a standard code by hand.

use crate::error::{parse_usize, tokens, FormatError};
use prophunt_circuit::schedule::ScheduleSpec;
use prophunt_gf2::BitMatrix;
use prophunt_qec::product::{try_bivariate_bicycle, try_generalized_bicycle, BivariateTerm};
use prophunt_qec::small::{quantum_repetition_code, steane_code};
use prophunt_qec::surface::{rotated_surface_code_with_layout, SurfaceLayout};
use prophunt_qec::CssCode;
use std::fmt::Write as _;

/// The header line every code spec file starts with.
pub const CODE_SPEC_HEADER: &str = "prophunt-code v1";

/// The syntactic content of a code spec file.
///
/// This is deliberately a plain data type, separate from [`CssCode`]: parsing and
/// writing round-trip a `CodeSpec` exactly (including specs that do not describe a
/// valid CSS code), while [`CodeSpec::to_code`] performs the semantic validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodeSpec {
    /// The code name.
    pub name: String,
    /// The number of data qubits (width of every matrix row).
    pub n: usize,
    /// The designed distance, if known.
    pub distance: Option<usize>,
    /// Rows of `H_X` as 0/1 bytes.
    pub hx: Vec<Vec<u8>>,
    /// Rows of `H_Z` as 0/1 bytes.
    pub hz: Vec<Vec<u8>>,
    /// Rows of `L_X` as 0/1 bytes (empty = derive at conversion time).
    pub lx: Vec<Vec<u8>>,
    /// Rows of `L_Z` as 0/1 bytes (empty = derive at conversion time).
    pub lz: Vec<Vec<u8>>,
}

fn matrix_rows(m: &BitMatrix) -> Vec<Vec<u8>> {
    m.rows_iter()
        .map(|row| (0..m.num_cols()).map(|c| u8::from(row.get(c))).collect())
        .collect()
}

fn rows_to_matrix(rows: &[Vec<u8>], n: usize) -> BitMatrix {
    let refs: Vec<&[u8]> = rows.iter().map(Vec::as_slice).collect();
    if rows.is_empty() {
        BitMatrix::zeros(0, n)
    } else {
        BitMatrix::from_rows_u8(&refs)
    }
}

impl CodeSpec {
    /// Extracts the spec of an existing code (always includes the logical operators,
    /// so the round-trip preserves the exact logical basis).
    pub fn from_code(code: &CssCode) -> CodeSpec {
        CodeSpec {
            name: code.name().to_string(),
            n: code.n(),
            distance: code.known_distance(),
            hx: matrix_rows(code.hx()),
            hz: matrix_rows(code.hz()),
            lx: matrix_rows(code.lx()),
            lz: matrix_rows(code.lz()),
        }
    }

    /// Converts the spec into a validated [`CssCode`].
    ///
    /// # Errors
    ///
    /// Returns a [`FormatError`] wrapping the underlying
    /// [`prophunt_qec::CssCodeError`] when the matrices do not describe a valid CSS
    /// code, or when only one of `lx`/`lz` is present.
    pub fn to_code(&self) -> Result<CssCode, FormatError> {
        let hx = rows_to_matrix(&self.hx, self.n);
        let hz = rows_to_matrix(&self.hz, self.n);
        let code = match self.distance {
            Some(d) => CssCode::with_known_distance(self.name.clone(), hx, hz, d),
            None => CssCode::new(self.name.clone(), hx, hz),
        }
        .map_err(|e| FormatError::whole_input(format!("invalid code spec: {e}")))?;
        match (self.lx.is_empty(), self.lz.is_empty()) {
            (true, true) => Ok(code),
            (false, false) => code
                .with_logicals(
                    rows_to_matrix(&self.lx, self.n),
                    rows_to_matrix(&self.lz, self.n),
                )
                .map_err(|e| {
                    FormatError::whole_input(format!("invalid logical operators in code spec: {e}"))
                }),
            _ => Err(FormatError::whole_input(
                "code spec provides only one of lx/lz; give both or neither",
            )),
        }
    }
}

/// Serializes a code spec to the `prophunt-code v1` text format.
pub fn write_code_spec(spec: &CodeSpec) -> String {
    let mut out = String::new();
    out.push_str(CODE_SPEC_HEADER);
    out.push('\n');
    let _ = writeln!(out, "name {}", spec.name);
    let _ = writeln!(out, "n {}", spec.n);
    if let Some(d) = spec.distance {
        let _ = writeln!(out, "distance {d}");
    }
    for (key, rows) in [
        ("hx", &spec.hx),
        ("hz", &spec.hz),
        ("lx", &spec.lx),
        ("lz", &spec.lz),
    ] {
        for row in rows.iter() {
            let _ = write!(out, "{key} ");
            for &bit in row {
                out.push(if bit != 0 { '1' } else { '0' });
            }
            out.push('\n');
        }
    }
    out
}

/// Parses the `prophunt-code v1` text format.
///
/// # Errors
///
/// Returns a located [`FormatError`] for a missing/wrong header, unknown keys,
/// malformed bit rows, rows whose width disagrees with `n`, duplicate header fields,
/// or a missing `name`/`n`.
pub fn parse_code_spec(input: &str) -> Result<CodeSpec, FormatError> {
    let mut lines = input.lines().enumerate();
    // Header: first non-blank, non-comment line.
    let mut header: Option<(usize, &str)> = None;
    for (idx, raw) in lines.by_ref() {
        let stripped = strip_comment(raw).trim();
        if !stripped.is_empty() {
            header = Some((idx + 1, stripped));
            break;
        }
    }
    match header {
        Some((_, h)) if h == CODE_SPEC_HEADER => {}
        Some((line, h)) => {
            return Err(FormatError::at_line(
                line,
                format!("expected header {CODE_SPEC_HEADER:?}, got {h:?}"),
            ))
        }
        None => return Err(FormatError::whole_input("empty code spec file")),
    }

    let mut name: Option<String> = None;
    let mut n: Option<usize> = None;
    let mut distance: Option<usize> = None;
    let mut hx = Vec::new();
    let mut hz = Vec::new();
    let mut lx = Vec::new();
    let mut lz = Vec::new();

    for (idx, raw) in lines {
        let line_no = idx + 1;
        let line = strip_comment(raw);
        let toks = tokens(line);
        let Some(&(col, key)) = toks.first() else {
            continue;
        };
        match key {
            "name" => {
                if name.is_some() {
                    return Err(FormatError::at(line_no, col, "duplicate name field"));
                }
                let rest = line[col - 1 + "name".len()..].trim();
                if rest.is_empty() {
                    return Err(FormatError::at(line_no, col, "name field needs a value"));
                }
                name = Some(rest.to_string());
            }
            "n" => {
                if n.is_some() {
                    return Err(FormatError::at(line_no, col, "duplicate n field"));
                }
                let &(vcol, v) = toks
                    .get(1)
                    .ok_or_else(|| FormatError::at(line_no, col, "n field needs a value"))?;
                n = Some(parse_usize(v, line_no, vcol)?);
            }
            "distance" => {
                if distance.is_some() {
                    return Err(FormatError::at(line_no, col, "duplicate distance field"));
                }
                let &(vcol, v) = toks
                    .get(1)
                    .ok_or_else(|| FormatError::at(line_no, col, "distance field needs a value"))?;
                distance = Some(parse_usize(v, line_no, vcol)?);
            }
            "hx" | "hz" | "lx" | "lz" => {
                let &(vcol, bits) = toks.get(1).ok_or_else(|| {
                    FormatError::at(line_no, col, format!("{key} row needs a bit string"))
                })?;
                if toks.len() > 2 {
                    return Err(FormatError::at(
                        line_no,
                        toks[2].0,
                        format!("unexpected extra token after {key} row"),
                    ));
                }
                let mut row = Vec::with_capacity(bits.len());
                for (i, c) in bits.char_indices() {
                    match c {
                        '0' => row.push(0u8),
                        '1' => row.push(1u8),
                        _ => {
                            return Err(FormatError::at(
                                line_no,
                                vcol + i,
                                format!("bit rows may only contain 0 and 1, got {c:?}"),
                            ))
                        }
                    }
                }
                let expected = n.ok_or_else(|| {
                    FormatError::at(line_no, col, "matrix rows must come after the n field")
                })?;
                if row.len() != expected {
                    return Err(FormatError::at(
                        line_no,
                        vcol,
                        format!("row has {} bits but n is {expected}", row.len()),
                    ));
                }
                match key {
                    "hx" => hx.push(row),
                    "hz" => hz.push(row),
                    "lx" => lx.push(row),
                    _ => lz.push(row),
                }
            }
            other => {
                return Err(FormatError::at(
                    line_no,
                    col,
                    format!("unknown code spec key {other:?}"),
                ))
            }
        }
    }

    Ok(CodeSpec {
        name: name.ok_or_else(|| FormatError::whole_input("code spec is missing a name field"))?,
        n: n.ok_or_else(|| FormatError::whole_input("code spec is missing an n field"))?,
        distance,
        hx,
        hz,
        lx,
        lz,
    })
}

fn strip_comment(line: &str) -> &str {
    match line.find('#') {
        Some(i) => &line[..i],
        None => line,
    }
}

/// A code resolved from the family mini-language, with the planar layout when the
/// family has one (surface codes — needed for hand-designed schedules).
#[derive(Debug, Clone)]
pub struct ResolvedCode {
    /// The constructed code.
    pub code: CssCode,
    /// The surface-code layout, when the family is `surface`.
    pub layout: Option<SurfaceLayout>,
}

impl ResolvedCode {
    /// Returns the hand-designed schedule when the family has one.
    pub fn hand_designed_schedule(&self) -> Option<ScheduleSpec> {
        self.layout
            .as_ref()
            .map(|layout| ScheduleSpec::surface_hand_designed(&self.code, layout))
    }
}

/// The most data qubits a family string may ask for.
///
/// The constructors build dense check matrices, so an unbounded size would exhaust
/// memory instead of failing; the largest benchmark code has 81 data qubits.
pub const MAX_FAMILY_QUBITS: usize = 10_000;

/// Rejects a family whose data-qubit count (`None` when it overflows `usize`)
/// exceeds [`MAX_FAMILY_QUBITS`].
fn check_family_size(spec: &str, qubits: Option<usize>) -> Result<(), FormatError> {
    match qubits {
        Some(n) if n <= MAX_FAMILY_QUBITS => Ok(()),
        _ => Err(FormatError::whole_input(format!(
            "{spec:?} has more than {MAX_FAMILY_QUBITS} data qubits, the bound on code families"
        ))),
    }
}

/// Resolves a code-family string (`surface:3`, `steane`, `repetition:5`,
/// `generalized_bicycle:<l>:<a exps>:<b exps>`,
/// `bivariate_bicycle:<l>:<m>:<a terms>:<b terms>`) into a constructed code.
///
/// Exponent lists are comma-separated integers (`0,1`); bivariate terms are
/// `x.y` pairs (`3.0,0.1,0.2` = `x³ + y + y²`).
///
/// # Errors
///
/// Returns a [`FormatError`] (without line information — family strings are single
/// tokens) describing the malformed field, a size above [`MAX_FAMILY_QUBITS`] or the
/// constructor failure.
pub fn resolve_family(spec: &str) -> Result<ResolvedCode, FormatError> {
    let err = |message: String| FormatError::whole_input(message);
    let mut parts = spec.split(':');
    let family = parts.next().unwrap_or_default();
    let rest: Vec<&str> = parts.collect();
    let arity = |want: usize, usage: &str| -> Result<(), FormatError> {
        if rest.len() == want {
            Ok(())
        } else {
            Err(err(format!("family {family:?} expects the form {usage:?}")))
        }
    };
    match family {
        "surface" => {
            arity(1, "surface:<distance>")?;
            let d = rest[0].parse::<usize>().map_err(|_| {
                err(format!(
                    "surface distance must be an integer, got {:?}",
                    rest[0]
                ))
            })?;
            if d < 2 {
                return Err(err(format!("surface distance must be >= 2, got {d}")));
            }
            check_family_size(spec, d.checked_mul(d))?;
            let (code, layout) = rotated_surface_code_with_layout(d);
            Ok(ResolvedCode {
                code,
                layout: Some(layout),
            })
        }
        "steane" => {
            arity(0, "steane")?;
            Ok(ResolvedCode {
                code: steane_code(),
                layout: None,
            })
        }
        "repetition" => {
            arity(1, "repetition:<n>")?;
            let n = rest[0].parse::<usize>().map_err(|_| {
                err(format!(
                    "repetition length must be an integer, got {:?}",
                    rest[0]
                ))
            })?;
            if n < 2 {
                return Err(err(format!("repetition length must be >= 2, got {n}")));
            }
            check_family_size(spec, Some(n))?;
            Ok(ResolvedCode {
                code: quantum_repetition_code(n),
                layout: None,
            })
        }
        "generalized_bicycle" => {
            arity(3, "generalized_bicycle:<l>:<a exps>:<b exps>")?;
            let l = rest[0].parse::<usize>().map_err(|_| {
                err(format!(
                    "circulant size must be an integer, got {:?}",
                    rest[0]
                ))
            })?;
            if l == 0 {
                return Err(err("circulant size must be >= 1".to_string()));
            }
            check_family_size(spec, l.checked_mul(2))?;
            let a = parse_exponents(rest[1])?;
            let b = parse_exponents(rest[2])?;
            let name = format!("gb_l{l}");
            try_generalized_bicycle(l, &a, &b, &name)
                .map(|code| ResolvedCode { code, layout: None })
                .map_err(|e| err(format!("generalized_bicycle construction failed: {e}")))
        }
        "bivariate_bicycle" => {
            arity(4, "bivariate_bicycle:<l>:<m>:<a terms>:<b terms>")?;
            let l = rest[0].parse::<usize>().map_err(|_| {
                err(format!(
                    "group size l must be an integer, got {:?}",
                    rest[0]
                ))
            })?;
            let m = rest[1].parse::<usize>().map_err(|_| {
                err(format!(
                    "group size m must be an integer, got {:?}",
                    rest[1]
                ))
            })?;
            if l == 0 || m == 0 {
                return Err(err("group sizes must be >= 1".to_string()));
            }
            check_family_size(spec, l.checked_mul(m).and_then(|lm| lm.checked_mul(2)))?;
            let a = parse_terms(rest[2])?;
            let b = parse_terms(rest[3])?;
            let name = format!("bb_l{l}m{m}");
            try_bivariate_bicycle(l, m, &a, &b, &name)
                .map(|code| ResolvedCode { code, layout: None })
                .map_err(|e| err(format!("bivariate_bicycle construction failed: {e}")))
        }
        other => Err(err(format!(
            "unknown code family {other:?}; known families: surface:<d>, steane, \
             repetition:<n>, generalized_bicycle:<l>:<a>:<b>, \
             bivariate_bicycle:<l>:<m>:<a>:<b>"
        ))),
    }
}

fn parse_exponents(text: &str) -> Result<Vec<usize>, FormatError> {
    text.split(',')
        .map(|t| {
            t.parse::<usize>().map_err(|_| {
                FormatError::whole_input(format!(
                    "exponent lists are comma-separated integers, got {t:?}"
                ))
            })
        })
        .collect()
}

fn parse_terms(text: &str) -> Result<Vec<BivariateTerm>, FormatError> {
    text.split(',')
        .map(|t| {
            let bad = || {
                FormatError::whole_input(format!(
                    "bivariate terms are <x>.<y> integer pairs, got {t:?}"
                ))
            };
            let (x, y) = t.split_once('.').ok_or_else(bad)?;
            Ok((
                x.parse::<usize>().map_err(|_| bad())?,
                y.parse::<usize>().map_err(|_| bad())?,
            ))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use prophunt_qec::surface::rotated_surface_code;

    #[test]
    fn surface_code_spec_round_trips_and_rebuilds() {
        let code = rotated_surface_code(3);
        let spec = CodeSpec::from_code(&code);
        let text = write_code_spec(&spec);
        let parsed = parse_code_spec(&text).unwrap();
        assert_eq!(parsed, spec);
        let rebuilt = parsed.to_code().unwrap();
        assert_eq!(rebuilt.name(), code.name());
        assert_eq!(rebuilt.hx(), code.hx());
        assert_eq!(rebuilt.hz(), code.hz());
        assert_eq!(rebuilt.lx(), code.lx());
        assert_eq!(rebuilt.lz(), code.lz());
        assert_eq!(rebuilt.known_distance(), code.known_distance());
    }

    #[test]
    fn repetition_code_with_zero_hx_rows_round_trips() {
        let code = quantum_repetition_code(5);
        let spec = CodeSpec::from_code(&code);
        assert!(spec.hx.is_empty());
        let parsed = parse_code_spec(&write_code_spec(&spec)).unwrap();
        assert_eq!(parsed, spec);
        let rebuilt = parsed.to_code().unwrap();
        assert_eq!(rebuilt.num_x_stabilizers(), 0);
        assert_eq!(rebuilt.n(), 5);
    }

    #[test]
    fn specs_without_logicals_derive_them() {
        let code = steane_code();
        let mut spec = CodeSpec::from_code(&code);
        spec.lx.clear();
        spec.lz.clear();
        let rebuilt = spec.to_code().unwrap();
        assert_eq!(rebuilt.k(), 1);
    }

    #[test]
    fn parse_errors_are_located() {
        assert!(parse_code_spec("").is_err());
        let err = parse_code_spec("wrong header\n").unwrap_err();
        assert_eq!(err.line, 1);
        let err = parse_code_spec("prophunt-code v1\nname x\nn 3\nhx 1012\n").unwrap_err();
        assert_eq!(err.line, 4);
        assert!(err.column > 0);
        let err = parse_code_spec("prophunt-code v1\nname x\nn 3\nhx 10\n").unwrap_err();
        assert!(err.message.contains("n is 3"));
        let err = parse_code_spec("prophunt-code v1\nname x\nn 3\nbogus 1\n").unwrap_err();
        assert!(err.message.contains("unknown code spec key"));
        let err = parse_code_spec("prophunt-code v1\nn 3\n").unwrap_err();
        assert!(err.message.contains("missing a name"));
    }

    #[test]
    fn one_sided_logicals_are_rejected_semantically() {
        let code = steane_code();
        let mut spec = CodeSpec::from_code(&code);
        spec.lz.clear();
        assert!(spec.to_code().unwrap_err().message.contains("only one of"));
    }

    #[test]
    fn families_resolve_to_expected_codes() {
        let surface = resolve_family("surface:5").unwrap();
        assert_eq!(surface.code.n(), 25);
        assert!(surface.layout.is_some());
        assert!(surface.hand_designed_schedule().is_some());
        assert_eq!(resolve_family("steane").unwrap().code.n(), 7);
        assert_eq!(resolve_family("repetition:7").unwrap().code.n(), 7);
        let gb = resolve_family("generalized_bicycle:9:0,1:0,3").unwrap();
        assert_eq!((gb.code.n(), gb.code.k()), (18, 2));
        let bb = resolve_family("bivariate_bicycle:6:6:3.0,0.1,0.2:0.3,1.0,2.0").unwrap();
        assert_eq!((bb.code.n(), bb.code.k()), (72, 12));
    }

    #[test]
    fn family_errors_are_descriptive() {
        assert!(resolve_family("surface:1").is_err());
        assert!(resolve_family("surface").is_err());
        assert!(resolve_family("repetition:1").is_err());
        assert!(resolve_family("nope:3")
            .unwrap_err()
            .message
            .contains("known families"));
        assert!(resolve_family("generalized_bicycle:9:0,x:0").is_err());
        assert!(resolve_family("bivariate_bicycle:6:6:3:0.3").is_err());
    }

    #[test]
    fn oversized_families_are_rejected_before_construction() {
        // Each of these is over the bound, or overflows the qubit count, and is
        // rejected before any check matrix is built.
        for spec in [
            "surface:101",
            "surface:4000",
            "surface:99999999999",
            "repetition:10001",
            "generalized_bicycle:5001:0,1:0,3",
            "bivariate_bicycle:71:71:3.0,0.1,0.2:0.3,1.0,2.0",
            "bivariate_bicycle:4294967296:4294967296:3.0,0.1:0.3,1.0",
        ] {
            let message = resolve_family(spec).unwrap_err().message;
            assert!(message.contains("10000"), "{spec}: {message}");
        }
    }
}
