//! Experiment scale.

use ajax_webgen::VidShareSpec;

/// How big to run the experiments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scale {
    /// A human-readable name (`small` / `paper`).
    pub name: &'static str,
    /// Pages for the crawling-performance experiments (thesis: 10 000).
    pub crawl_pages: u32,
    /// Video-count subsets for Fig 7.2 (thesis: 20…500).
    pub growth_subsets: Vec<u32>,
    /// Video-count subsets for the caching experiments, Figs. 7.5–7.7
    /// (thesis: 10…100).
    pub cache_subsets: Vec<u32>,
    /// Pages for the query-processing experiments (thesis: 2 500).
    pub query_pages: u32,
    /// Site size backing everything.
    pub site_videos: u32,
}

impl Scale {
    /// Laptop scale: same shapes, minutes not hours.
    pub fn small() -> Self {
        Self {
            name: "small",
            crawl_pages: 600,
            growth_subsets: vec![20, 40, 60, 80, 100, 250, 500],
            cache_subsets: vec![10, 20, 40, 60, 80, 100],
            query_pages: 400,
            site_videos: 1_000,
        }
    }

    /// The thesis' scale (YouTube10000; queries on 2 500 pages).
    pub fn paper() -> Self {
        Self {
            name: "paper",
            crawl_pages: 10_000,
            growth_subsets: vec![20, 40, 60, 80, 100, 250, 500],
            cache_subsets: vec![10, 20, 40, 60, 80, 100],
            query_pages: 2_500,
            site_videos: 10_000,
        }
    }

    /// Reads `AJAX_CRAWL_SCALE`: unset or `small` for [`Scale::small`],
    /// `paper` for [`Scale::paper`]; any other value is an error.
    pub fn from_env() -> Result<Self, String> {
        let value = std::env::var_os("AJAX_CRAWL_SCALE");
        Self::named(value.as_ref().map(|v| v.to_string_lossy()).as_deref())
    }

    /// The scale called `name` (`None` is the default, `small`).
    pub fn named(name: Option<&str>) -> Result<Self, String> {
        match name {
            None | Some("small") => Ok(Self::small()),
            Some("paper") => Ok(Self::paper()),
            Some(other) => Err(format!(
                "AJAX_CRAWL_SCALE must be small or paper, got {other:?}"
            )),
        }
    }

    /// The VidShare site spec all experiments share.
    pub fn spec(&self) -> VidShareSpec {
        VidShareSpec {
            num_videos: self.site_videos,
            ..VidShareSpec::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_to_small() {
        assert_eq!(Scale::named(None), Ok(Scale::small()));
        assert_eq!(Scale::named(Some("paper")), Ok(Scale::paper()));
        assert!(Scale::named(Some("full")).is_err());
    }

    #[test]
    fn paper_scale_matches_thesis() {
        let p = Scale::paper();
        assert_eq!(p.crawl_pages, 10_000);
        assert_eq!(p.query_pages, 2_500);
        assert_eq!(p.cache_subsets.last(), Some(&100));
    }
}
