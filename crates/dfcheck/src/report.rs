//! Findings, sites and the machine/human report formats.

use crate::model::{ModelStats, TaskNode};

/// A source location in the modeled schedule — enough for a human to
/// find the offending spawn without a debugger.
#[derive(Debug, Clone)]
pub struct Site {
    /// Owning rank.
    pub rank: usize,
    /// Per-rank spawn order.
    pub seq: usize,
    /// Task kind name, or the barrier's (`NodeKind::name`).
    pub label: &'static str,
    /// Variant-specific description (message, direction, block...).
    pub detail: String,
    /// Mesh epoch.
    pub epoch: u32,
    /// Modeled stage.
    pub stage: u32,
    /// Variable group.
    pub group: u32,
    /// Message tag, for endpoints.
    pub tag: Option<i32>,
    /// Peer rank, for endpoints.
    pub peer: Option<usize>,
    /// Payload element count, for endpoints.
    pub elems: Option<usize>,
}

impl Site {
    /// Builds a site from a model node.
    pub fn of(node: &TaskNode) -> Site {
        Site {
            rank: node.rank,
            seq: node.seq,
            label: node.kind.name(),
            detail: node.detail.clone(),
            epoch: node.ctx.epoch,
            stage: node.ctx.stage,
            group: node.ctx.group,
            tag: node.comm.as_ref().map(|c| c.tag),
            peer: node.comm.as_ref().map(|c| c.peer),
            elems: node.comm.as_ref().map(|c| c.elems),
        }
    }

    fn render(&self) -> String {
        let mut s = format!(
            "rank {} seq {} [{}] epoch {} stage {} group {}",
            self.rank, self.seq, self.label, self.epoch, self.stage, self.group
        );
        if let Some(tag) = self.tag {
            s.push_str(&format!(
                " tag {} peer {} elems {}",
                tag,
                self.peer.unwrap_or(usize::MAX),
                self.elems.unwrap_or(0)
            ));
        }
        if !self.detail.is_empty() {
            s.push_str(" — ");
            s.push_str(&self.detail);
        }
        s
    }
}

/// One diagnostic: a stable machine code, a message, the involved sites
/// and (for deadlocks) the causal chain.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Stable machine-readable code (`tag-collision`, `deadlock-cycle`,
    /// `size-mismatch`, `unmatched-endpoint`, `tag-out-of-range`,
    /// `tag-in-collective-space`,
    /// `undeclared-access`, `dead-region`, `self-conflict`,
    /// `buffer-slot-overlap`, ...).
    pub code: &'static str,
    /// Human-readable one-line summary.
    pub message: String,
    /// The sites involved (e.g. both aliased sends).
    pub sites: Vec<Site>,
    /// Step-by-step causal chain (deadlock cycles), already rendered.
    pub chain: Vec<String>,
}

/// The verifier's verdict: errors fail the check (exit 95), warnings
/// do not.
#[derive(Debug)]
pub struct Report {
    /// Contract violations — any entry fails the check.
    pub errors: Vec<Finding>,
    /// Lints — suspicious but not provably wrong.
    pub warnings: Vec<Finding>,
    /// Model statistics.
    pub stats: ModelStats,
}

impl Report {
    /// An empty report carrying the model statistics.
    pub fn new(stats: ModelStats) -> Report {
        Report {
            errors: Vec::new(),
            warnings: Vec::new(),
            stats,
        }
    }

    /// Whether the check passed (warnings allowed).
    pub fn clean(&self) -> bool {
        self.errors.is_empty()
    }

    /// Records an error-severity finding.
    pub fn push_error(&mut self, f: Finding) {
        self.errors.push(f);
    }

    /// Records a warning-severity finding.
    pub fn push_warning(&mut self, f: Finding) {
        self.warnings.push(f);
    }

    /// Renders the human-readable report (stderr-style).
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "dfcheck: {} rank(s), {} epoch(s), {} node(s), {} edge(s), {} endpoint(s)\n",
            self.stats.ranks,
            self.stats.epochs,
            self.stats.nodes,
            self.stats.edges,
            self.stats.endpoints
        ));
        let cap = 20usize;
        for (sev, list) in [("error", &self.errors), ("warning", &self.warnings)] {
            for f in list.iter().take(cap) {
                out.push_str(&format!("{} [{}]: {}\n", sev, f.code, f.message));
                for s in &f.sites {
                    out.push_str(&format!("    at {}\n", s.render()));
                }
                for (i, step) in f.chain.iter().enumerate() {
                    out.push_str(&format!("    #{} {}\n", i, step));
                }
            }
            if list.len() > cap {
                out.push_str(&format!(
                    "    ... and {} more {}(s)\n",
                    list.len() - cap,
                    sev
                ));
            }
        }
        out.push_str(&format!(
            "dfcheck: {} — {} error(s), {} warning(s)\n",
            if self.clean() { "PASS" } else { "FAIL" },
            self.errors.len(),
            self.warnings.len()
        ));
        out
    }

    /// Renders the structured JSON report (stdout-style). Hand-rolled —
    /// the workspace carries no serialization dependency.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str("\"schema\":\"miniamr-dfcheck-report\",\"version\":1,");
        out.push_str(&format!(
            "\"clean\":{},\"stats\":{{\"ranks\":{},\"epochs\":{},\"nodes\":{},\"edges\":{},\"endpoints\":{}}},",
            self.clean(),
            self.stats.ranks,
            self.stats.epochs,
            self.stats.nodes,
            self.stats.edges,
            self.stats.endpoints
        ));
        for (key, list) in [("errors", &self.errors), ("warnings", &self.warnings)] {
            out.push_str(&format!("\"{}\":[", key));
            for (i, f) in list.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&finding_json(f));
            }
            out.push_str("],");
        }
        out.pop(); // trailing comma
        out.push('}');
        out
    }
}

fn finding_json(f: &Finding) -> String {
    let mut out = String::from("{");
    out.push_str(&format!(
        "\"code\":{},\"message\":{},\"sites\":[",
        json_str(f.code),
        json_str(&f.message)
    ));
    for (i, s) in f.sites.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&site_json(s));
    }
    out.push_str("],\"chain\":[");
    for (i, step) in f.chain.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json_str(step));
    }
    out.push_str("]}");
    out
}

fn site_json(s: &Site) -> String {
    let mut out = format!(
        "{{\"rank\":{},\"seq\":{},\"label\":{},\"detail\":{},\"epoch\":{},\"stage\":{},\"group\":{}",
        s.rank,
        s.seq,
        json_str(s.label),
        json_str(&s.detail),
        s.epoch,
        s.stage,
        s.group
    );
    if let Some(tag) = s.tag {
        out.push_str(&format!(
            ",\"tag\":{},\"peer\":{},\"elems\":{}",
            tag,
            s.peer.unwrap_or(0),
            s.elems.unwrap_or(0)
        ));
    }
    out.push('}');
    out
}

/// Escapes a string as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping_and_shape() {
        let mut r = Report::new(ModelStats::default());
        r.push_error(Finding {
            code: "tag-collision",
            message: "a \"quoted\"\nmessage".into(),
            sites: vec![],
            chain: vec!["step one".into()],
        });
        let j = r.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"schema\":\"miniamr-dfcheck-report\""));
        assert!(j.contains("\\\"quoted\\\"\\nmessage"));
        assert!(j.contains("\"clean\":false"));
        assert!(!r.clean());
    }
}
