//! Plain-text (de)serialisation of disk-level traces.
//!
//! The format is one operation per line:
//!
//! ```text
//! # mobistore trace v1 block_size=1024
//! 0 write 0 4 1
//! 1000000 read 0 2 1
//! ```
//!
//! Fields: `time_ns kind lbn blocks file_id`, space-separated. A record
//! spans at most [`MAX_OP_BLOCKS`] blocks, and its block range
//! `lbn..lbn + blocks` ends at or before [`MAX_LBN_END`] (2^32). Lines
//! beginning with `#` are comments, except the mandatory header carrying
//! the block size. The format exists so generated workloads can be
//! archived and replayed outside the library (e.g. by the `repro`
//! binary's `--dump` mode).

use std::fmt::Write as _;

use mobistore_sim::time::SimTime;

use crate::record::{DiskOp, DiskOpKind, FileId, Trace};

/// Most blocks one record may span: 64 MiB at 1-KB blocks. The generated
/// workloads stay far below it (the largest op at scale 1 is 246 blocks),
/// and consumers that walk an op block by block stay bounded.
pub const MAX_OP_BLOCKS: u32 = 65_536;

/// Exclusive upper end of every record's block range: `lbn + blocks`
/// must not exceed 2^32 (4 TiB at 1-KB blocks; the generated workloads
/// end below 33,000). This also keeps the flash card's reserved lbn
/// `u64::MAX` out of reach.
pub const MAX_LBN_END: u64 = 1 << 32;

/// An error produced when parsing a textual trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl core::fmt::Display for ParseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "trace parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Serialises a trace to the v1 text format.
pub fn write_text(trace: &Trace) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# mobistore trace v1 block_size={}", trace.block_size);
    for op in &trace.ops {
        let kind = match op.kind {
            DiskOpKind::Read => "read",
            DiskOpKind::Write => "write",
            DiskOpKind::Trim => "trim",
        };
        let _ = writeln!(
            out,
            "{} {} {} {} {}",
            op.time.as_nanos(),
            kind,
            op.lbn,
            op.blocks,
            op.file.0
        );
    }
    out
}

/// Parses a trace from the v1 text format.
///
/// # Errors
///
/// Returns a [`ParseError`] naming the offending line on any malformed
/// input, missing header, out-of-order timestamps, or a record past the
/// [`MAX_OP_BLOCKS`] / [`MAX_LBN_END`] bound.
pub fn read_text(text: &str) -> Result<Trace, ParseError> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or_else(|| ParseError {
        line: 1,
        message: "empty input".into(),
    })?;
    let block_size = parse_header(header).ok_or_else(|| ParseError {
        line: 1,
        message: format!("bad header: {header:?}"),
    })?;

    let mut trace = Trace::new(block_size);
    let mut last_time = 0u64;
    for (idx, line) in lines {
        let lineno = idx + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut fields = line.split_ascii_whitespace();
        let op = (|| -> Option<DiskOp> {
            let time: u64 = fields.next()?.parse().ok()?;
            let kind = match fields.next()? {
                "read" => DiskOpKind::Read,
                "write" => DiskOpKind::Write,
                "trim" => DiskOpKind::Trim,
                _ => return None,
            };
            let lbn: u64 = fields.next()?.parse().ok()?;
            let blocks: u32 = fields.next()?.parse().ok()?;
            let file: u64 = fields.next()?.parse().ok()?;
            if fields.next().is_some() {
                return None;
            }
            Some(DiskOp {
                time: SimTime::from_nanos(time),
                kind,
                lbn,
                blocks,
                file: FileId(file),
            })
        })()
        .ok_or_else(|| ParseError {
            line: lineno,
            message: format!("malformed record: {line:?}"),
        })?;

        if op.blocks > MAX_OP_BLOCKS || op.lbn.saturating_add(u64::from(op.blocks)) > MAX_LBN_END {
            return Err(ParseError {
                line: lineno,
                message: format!(
                    "block range {}+{} past the bound (at most {MAX_OP_BLOCKS} blocks, \
                     ending at or before 2^32)",
                    op.lbn, op.blocks
                ),
            });
        }
        if op.time.as_nanos() < last_time {
            return Err(ParseError {
                line: lineno,
                message: "timestamps not sorted".into(),
            });
        }
        last_time = op.time.as_nanos();
        trace.push(op);
    }
    Ok(trace)
}

fn parse_header(header: &str) -> Option<u64> {
    let rest = header.strip_prefix("# mobistore trace v1 block_size=")?;
    rest.trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut t = Trace::new(512);
        t.push(DiskOp {
            time: SimTime::from_nanos(10),
            kind: DiskOpKind::Write,
            lbn: 3,
            blocks: 2,
            file: FileId(7),
        });
        t.push(DiskOp {
            time: SimTime::from_nanos(20),
            kind: DiskOpKind::Trim,
            lbn: 3,
            blocks: 2,
            file: FileId(7),
        });
        t
    }

    #[test]
    fn roundtrip() {
        let t = sample();
        let text = write_text(&t);
        let back = read_text(&text).unwrap();
        assert_eq!(back.block_size, t.block_size);
        assert_eq!(back.ops, t.ops);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "# mobistore trace v1 block_size=1024\n\n# a comment\n5 read 0 1 0\n";
        let t = read_text(text).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.block_size, 1024);
    }

    #[test]
    fn missing_header_is_error() {
        let err = read_text("5 read 0 1 0\n").unwrap_err();
        assert_eq!(err.line, 1);
    }

    #[test]
    fn malformed_record_names_line() {
        let text = "# mobistore trace v1 block_size=1024\n5 scribble 0 1 0\n";
        let err = read_text(text).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("malformed"));
    }

    #[test]
    fn extra_fields_rejected() {
        let text = "# mobistore trace v1 block_size=1024\n5 read 0 1 0 99\n";
        assert!(read_text(text).is_err());
    }

    #[test]
    fn block_range_past_u64_rejected() {
        let header = "# mobistore trace v1 block_size=1024\n";
        let max = u64::MAX;
        let last = MAX_LBN_END - 1;
        let too_long = MAX_OP_BLOCKS + 1;
        for record in [
            format!("5 write {max} 1 0"),
            // 4e9 blocks: walking it block by block never finishes.
            "0 write 1000000000000 4000000000 3".to_owned(),
            // Ends one block past 2^32.
            format!("5 write {last} 2 0"),
            format!("5 write 0 {too_long} 0"),
        ] {
            let err = read_text(&format!("{header}{record}\n")).unwrap_err();
            assert_eq!(err.line, 2, "{record}");
        }
        // Both bounds are inclusive.
        let trace = read_text(&format!("{header}5 write {last} 1 0\n")).unwrap();
        assert_eq!(trace.ops[0].lbn, last);
        let first = MAX_LBN_END - u64::from(MAX_OP_BLOCKS);
        let text = format!("{header}5 write {first} {MAX_OP_BLOCKS} 0\n");
        assert_eq!(read_text(&text).unwrap().ops[0].blocks, MAX_OP_BLOCKS);
    }

    #[test]
    fn unsorted_times_rejected() {
        let text = "# mobistore trace v1 block_size=1024\n5 read 0 1 0\n4 read 0 1 0\n";
        let err = read_text(text).unwrap_err();
        assert!(err.message.contains("sorted"));
    }

    #[test]
    fn empty_input_is_error() {
        assert!(read_text("").is_err());
    }
}
