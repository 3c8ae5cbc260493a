//! # pq-stats — the statistics toolkit of the study analysis
//!
//! Everything the paper's evaluation needs, implemented from scratch:
//! descriptive statistics, ln-gamma / incomplete beta & gamma special
//! functions, normal / Student-t / F / χ² distributions, confidence
//! intervals (the 99 % error bars of Figs. 3 and 5), Pearson and
//! Spearman correlation (Fig. 6), one-way ANOVA and two-sample t-tests
//! (the §4.4 significance machinery) and Jarque–Bera normality (the
//! lab-vs-Internet distribution check of §4.2).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anova;
pub mod ci;
pub mod corr;
pub mod desc;
pub mod dist;
pub mod normality;
pub mod special;
pub mod ttest;

pub use anova::{one_way_anova, AnovaResult};
pub use ci::{t_interval, z_interval, ConfidenceInterval, TIntervals};
pub use corr::{pearson, spearman};
pub use desc::{excess_kurtosis, mean, median, quantile, sem, skewness, std_dev, variance};
pub use dist::{chi2_cdf, f_cdf, normal_cdf, t_cdf, t_critical, z_critical};
pub use normality::{jarque_bera, JarqueBera};
pub use special::{beta_inc, gamma_inc_lower, ln_gamma};
pub use ttest::{student_t_test, welch_t_test, TTestResult};
