//! The 36-site study corpus.
//!
//! The paper derives 40 sites from the Alexa Top 50 / Moz Top 50
//! (Wijnants et al., WWW'18), keeps 36 it can replay, and highlights a
//! handful by name. We mirror that: 36 hostnames with structural
//! parameters (transfer size, object count, origin count) chosen to
//! span the same wide ranges — "high variation in size (number of
//! objects and their sizes) as well as contacted IP addresses
//! (multi-server nature)" (§3).
//!
//! The five lab-study domains (wikipedia.org, gov.uk, etsy.com,
//! demorgen.be, nytimes.com) and the sites the paper calls out in
//! §4.4 (spotify.com, apache.org, google.com, nature.com, w3.org,
//! wordpress.com, gravatar.com) are all present.

use crate::website::{SiteSpec, Website};

/// `(name, total_kB, objects, origins)` for each corpus site.
const CORPUS: [(&str, u64, u32, u16); 36] = [
    // --- the five lab-study domains (diverse in size, §4.1) ---
    ("wikipedia.org", 180, 22, 3),
    ("gov.uk", 320, 40, 5),
    ("etsy.com", 2600, 140, 24),
    ("demorgen.be", 3400, 170, 28),
    ("nytimes.com", 4200, 190, 30),
    // --- sites discussed individually in §4.4 ---
    ("spotify.com", 450, 55, 18), // small but contacts many hosts
    ("apache.org", 95, 14, 2),    // small in size and resources
    ("google.com", 420, 28, 4),
    ("nature.com", 2900, 150, 22),
    ("w3.org", 210, 26, 3),
    ("wordpress.com", 160, 18, 6), // few resources, <10 hosts
    ("gravatar.com", 130, 16, 4),
    // --- remainder of the Alexa/Moz-derived corpus ---
    ("amazon.com", 3800, 210, 16),
    ("bing.com", 680, 38, 5),
    ("bbc.com", 2400, 130, 26),
    ("cnn.com", 5200, 230, 32),
    ("ebay.com", 2100, 120, 18),
    ("github.com", 520, 40, 6),
    ("imdb.com", 2800, 160, 20),
    ("instagram.com", 1500, 60, 8),
    ("linkedin.com", 1900, 90, 14),
    ("microsoft.com", 1400, 85, 12),
    ("mozilla.org", 380, 34, 5),
    ("netflix.com", 1100, 48, 9),
    ("office.com", 950, 55, 10),
    ("paypal.com", 780, 45, 8),
    ("pinterest.com", 1700, 95, 12),
    ("reddit.com", 2300, 125, 19),
    ("stackoverflow.com", 640, 52, 9),
    ("twitter.com", 1300, 70, 10),
    ("twitch.tv", 2000, 100, 15),
    ("vimeo.com", 1200, 65, 11),
    ("weather.com", 3100, 175, 27),
    ("whatsapp.com", 340, 24, 4),
    ("yahoo.com", 3600, 185, 25),
    ("youtube.com", 2500, 110, 13),
];

/// The five domains used in the (shorter) lab study.
pub const LAB_SITES: [&str; 5] = [
    "wikipedia.org",
    "gov.uk",
    "etsy.com",
    "demorgen.be",
    "nytimes.com",
];

/// Specs for all 36 corpus sites.
pub fn corpus_specs() -> Vec<SiteSpec> {
    CORPUS
        .iter()
        .enumerate()
        .map(|(i, &(name, kb, objects, origins))| SiteSpec {
            name: name.to_string(),
            total_bytes: kb * 1000,
            objects,
            origins,
            seed: 0xC0FFEE ^ ((i as u64) << 16),
        })
        .collect()
}

/// Generate the full 36-site corpus.
pub fn corpus() -> Vec<Website> {
    corpus_specs().iter().map(Website::generate).collect()
}

/// Generate one corpus site by hostname.
pub fn site(name: &str) -> Option<Website> {
    corpus_specs()
        .iter()
        .find(|s| s.name == name)
        .map(Website::generate)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thirty_six_sites() {
        let c = corpus();
        assert_eq!(c.len(), 36);
    }

    #[test]
    fn lab_sites_present() {
        for name in LAB_SITES {
            assert!(site(name).is_some(), "{name} missing from corpus");
        }
        assert!(site("spotify.com").is_some());
        assert!(site("no-such-site.example").is_none());
    }

    #[test]
    fn corpus_spans_wide_ranges() {
        let c = corpus();
        let sizes: Vec<u64> = c.iter().map(Website::total_bytes).collect();
        let origins: Vec<u16> = c.iter().map(|w| w.origins).collect();
        assert!(*sizes.iter().min().unwrap() < 200_000, "small sites exist");
        assert!(
            *sizes.iter().max().unwrap() > 3_000_000,
            "large sites exist"
        );
        assert!(
            *origins.iter().min().unwrap() <= 3,
            "single-ish origin sites"
        );
        assert!(*origins.iter().max().unwrap() >= 25, "many-origin sites");
    }

    #[test]
    fn names_unique() {
        let mut names: Vec<&str> = CORPUS.iter().map(|c| c.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 36);
    }

    #[test]
    fn regeneration_is_stable() {
        let a = corpus();
        let b = corpus();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.total_bytes(), y.total_bytes(), "{}", x.name);
        }
    }
}
