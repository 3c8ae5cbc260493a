//! # pq-stats — the statistics toolkit of the study analysis
//!
//! What the figures call, implemented from scratch: descriptive
//! statistics, ln-gamma / incomplete beta & gamma special functions,
//! Student-t / F / χ² distributions, Student-t confidence intervals
//! (the 99 % error bars of Figs. 3 and 5), Pearson correlation
//! (Fig. 6), one-way ANOVA (the §4.4 significance machinery; its
//! two-group case is the pooled t-test, F = t²) and Jarque–Bera
//! normality (the lab-vs-Internet distribution check of §4.2).

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]
#![warn(missing_docs)]

pub mod anova;
pub mod ci;
pub mod corr;
pub mod desc;
pub mod dist;
pub mod normality;
pub mod special;

pub use anova::{one_way_anova, AnovaResult};
pub use ci::{t_interval, ConfidenceInterval};
pub use corr::pearson;
pub use desc::{excess_kurtosis, mean, median, quantile, sem, skewness, std_dev, variance};
pub use dist::{chi2_cdf, f_cdf, t_cdf, t_critical};
pub use normality::{jarque_bera, JarqueBera};
pub use special::{beta_inc, gamma_inc_lower, ln_gamma};
