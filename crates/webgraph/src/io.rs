//! Graph serialization: a human-readable text edge-list format that
//! round-trips through [`CsrGraph`].
//!
//! The one binary format at rest is the segment directory of
//! `jxp-segstore` (gap-coded, CRC'd), which `jxp-cli generate --out DIR`
//! writes and every `GraphSource` consumer reads.

use crate::builder::GraphBuilder;
use crate::csr::CsrGraph;
use crate::id::PageId;
use std::io::{self, BufRead, Write};

/// Write `g` as a text edge list: a header line `# nodes <n>` followed by
/// one `src dst` pair per line.
pub fn write_edge_list(g: &CsrGraph, w: &mut impl Write) -> io::Result<()> {
    writeln!(w, "# nodes {}", g.num_nodes())?;
    for (s, d) in g.edges() {
        writeln!(w, "{} {}", s.0, d.0)?;
    }
    Ok(())
}

/// Read a text edge list produced by [`write_edge_list`]. Lines starting
/// with `#` other than the node-count header are ignored as comments, as
/// are blank lines.
pub fn read_edge_list(r: &mut impl BufRead) -> io::Result<CsrGraph> {
    let mut b = GraphBuilder::new();
    for line in r.lines() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let mut it = rest.split_whitespace();
            if it.next() == Some("nodes") {
                if let Some(n) = it.next().and_then(|s| s.parse::<usize>().ok()) {
                    b.ensure_nodes(n);
                }
            }
            continue;
        }
        let mut it = line.split_whitespace();
        let parse = |tok: Option<&str>| -> io::Result<u32> {
            tok.ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "missing field"))?
                .parse::<u32>()
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
        };
        let s = parse(it.next())?;
        let d = parse(it.next())?;
        b.add_edge(PageId(s), PageId(d));
    }
    Ok(b.build())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrGraph {
        let mut b = GraphBuilder::new();
        for (s, d) in [(0u32, 1u32), (1, 2), (2, 0), (2, 3)] {
            b.add_edge(PageId(s), PageId(d));
        }
        b.ensure_nodes(6); // trailing isolated nodes exercise the header
        b.build()
    }

    #[test]
    fn text_round_trip() {
        let g = sample();
        let mut out = Vec::new();
        write_edge_list(&g, &mut out).unwrap();
        let g2 = read_edge_list(&mut &out[..]).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn text_ignores_comments_and_blank_lines() {
        let text = "# a comment\n\n# nodes 4\n0 1\n  1 2  \n";
        let g = read_edge_list(&mut text.as_bytes()).unwrap();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn text_rejects_garbage() {
        let text = "0 x\n";
        assert!(read_edge_list(&mut text.as_bytes()).is_err());
        let text = "0\n";
        assert!(read_edge_list(&mut text.as_bytes()).is_err());
    }
}
