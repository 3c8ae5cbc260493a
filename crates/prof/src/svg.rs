//! Self-contained flamegraph SVG renderer for folded profiles.
//!
//! [`render`] turns the `(path, count, self_ns)` rows from
//! [`crate::span::folded`] into a standalone SVG — no JavaScript, no
//! external tooling — so a profile can be eyeballed straight from the
//! results directory. Layout is the classic icicle: a synthetic `all`
//! root on top, children ordered alphabetically (deterministic), rect
//! width proportional to total (self + descendants) time, with a
//! `<title>` tooltip carrying the exact numbers.

use std::collections::BTreeMap;

const WIDTH: f64 = 1200.0;
const ROW_H: f64 = 16.0;
const FONT: f64 = 11.0;
/// Rects narrower than this fraction of the canvas are skipped — they
/// would be sub-pixel smears.
const MIN_FRAC: f64 = 0.0005;

#[derive(Default)]
struct Node {
    self_ns: u64,
    count: u64,
    children: BTreeMap<String, Node>,
}

impl Node {
    fn total_ns(&self) -> u64 {
        self.self_ns + self.children.values().map(Node::total_ns).sum::<u64>()
    }

    fn depth(&self) -> usize {
        1 + self.children.values().map(Node::depth).max().unwrap_or(0)
    }
}

fn build_tree(entries: &[(String, u64, u64)]) -> Node {
    let mut root = Node::default();
    for (path, count, self_ns) in entries {
        let mut node = &mut root;
        for seg in path.split(';') {
            node = node.children.entry(seg.to_string()).or_default();
        }
        node.self_ns = node.self_ns.saturating_add(*self_ns);
        node.count += count;
    }
    root
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&#39;"),
            _ => out.push(c),
        }
    }
    out
}

/// Deterministic warm colour from the frame name (FNV-1a spread over
/// a red/orange/yellow palette, flamegraph-style).
fn color(name: &str) -> String {
    let h = pq_ckpt::fnv1a(name.as_bytes());
    let r = 205 + (h % 50) as u32;
    let g = (h >> 8) % 230;
    let b = (h >> 16) % 55;
    format!("rgb({r},{g},{b})")
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else {
        format!("{:.1}us", ns as f64 / 1e3)
    }
}

#[allow(clippy::too_many_arguments, reason = "the geometry of one frame")]
fn emit(
    out: &mut String,
    name: &str,
    node: &Node,
    x: f64,
    width: f64,
    depth: usize,
    grand_total: u64,
    svg_h: f64,
) {
    if width / WIDTH < MIN_FRAC {
        return;
    }
    let y = 40.0 + depth as f64 * ROW_H;
    let total = node.total_ns();
    let pct = if grand_total > 0 {
        100.0 * total as f64 / grand_total as f64
    } else {
        0.0
    };
    let title = format!(
        "{} — total {} ({:.2}%), self {}, {} calls",
        name,
        fmt_ns(total),
        pct,
        fmt_ns(node.self_ns),
        node.count
    );
    out.push_str(&format!(
        "<g><title>{}</title><rect x=\"{:.2}\" y=\"{:.2}\" width=\"{:.2}\" height=\"{:.2}\" \
         fill=\"{}\" rx=\"1\"/>",
        escape(&title),
        x,
        svg_h - y - ROW_H,
        width - 0.5,
        ROW_H - 1.0,
        color(name)
    ));
    // ~6.2px per glyph at 11px font: only label rects the text fits in.
    let fits = (width / 6.2) as usize;
    if fits >= 3 {
        let label = if name.len() <= fits {
            name.to_string()
        } else {
            format!("{}..", &name[..fits.saturating_sub(2)])
        };
        out.push_str(&format!(
            "<text x=\"{:.2}\" y=\"{:.2}\" font-size=\"{FONT}\" font-family=\"monospace\">{}</text>",
            x + 2.0,
            svg_h - y - 4.0,
            escape(&label)
        ));
    }
    out.push_str("</g>\n");
    // Children: self-time occupies the left edge implicitly; children
    // pack left-to-right in alphabetical order.
    let mut cx = x;
    for (cname, child) in &node.children {
        let cw = if total > 0 {
            width * child.total_ns() as f64 / total as f64
        } else {
            0.0
        };
        emit(out, cname, child, cx, cw, depth + 1, grand_total, svg_h);
        cx += cw;
    }
}

/// Render folded-profile rows (as returned by [`crate::span::folded`])
/// into a standalone flamegraph SVG document.
pub fn render(entries: &[(String, u64, u64)]) -> String {
    let root = build_tree(entries);
    let grand_total = root.total_ns();
    let depth = root.depth();
    let svg_h = 60.0 + depth as f64 * ROW_H;
    let mut out = String::new();
    out.push_str(&format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{WIDTH}\" height=\"{svg_h}\" \
         viewBox=\"0 0 {WIDTH} {svg_h}\">\n"
    ));
    out.push_str(&format!(
        "<rect width=\"{WIDTH}\" height=\"{svg_h}\" fill=\"#f8f8f8\"/>\n\
         <text x=\"{:.0}\" y=\"24\" text-anchor=\"middle\" font-size=\"14\" \
         font-family=\"monospace\">pq-prof flamegraph — total {}</text>\n",
        WIDTH / 2.0,
        escape(&fmt_ns(grand_total))
    ));
    let all = Node {
        self_ns: 0,
        count: 0,
        children: root.children,
    };
    emit(&mut out, "all", &all, 0.0, WIDTH, 0, grand_total, svg_h);
    out.push_str("</svg>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<(String, u64, u64)> {
        vec![
            ("experiment".to_string(), 1, 5_000_000),
            ("experiment;load:QUIC".to_string(), 10, 40_000_000),
            (
                "experiment;load:QUIC;event:arrival".to_string(),
                900,
                55_000_000,
            ),
            ("experiment;load:TCP".to_string(), 10, 30_000_000),
        ]
    }

    #[test]
    fn renders_wellformed_svg_with_rects() {
        let svg = render(&sample());
        assert!(svg.starts_with("<svg "));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert!(
            svg.matches("<rect").count() >= 4,
            "one rect per frame + background"
        );
        assert!(svg.contains("load:QUIC"));
        assert!(svg.contains("event:arrival"));
    }

    #[test]
    fn escapes_markup_in_names() {
        let rows = vec![("a<b>&\"c\"".to_string(), 1, 1_000_000)];
        let svg = render(&rows);
        assert!(svg.contains("a&lt;b&gt;&amp;&quot;c&quot;"));
        assert!(!svg.contains("a<b>"));
    }

    #[test]
    fn empty_profile_still_renders() {
        let svg = render(&[]);
        assert!(svg.starts_with("<svg "));
        assert!(svg.trim_end().ends_with("</svg>"));
    }

    #[test]
    fn deterministic_output() {
        assert_eq!(render(&sample()), render(&sample()));
    }
}
