//! Fig. 15: area breakdown of one CTA accelerator.
//!
//! Paper result: total 2.150 mm² at SMIC 40 nm with the SA computation
//! engine at 74.6%.

use std::process::ExitCode;

use cta_bench::{banner, cli_main, row};
use cta_sim::{area_breakdown, AreaModel, HwConfig};

fn main() -> ExitCode {
    cli_main("fig15_area", &[], std::env::args().skip(1), |_| {
        banner("Figure 15 — area breakdown (40 nm)");
        let report = area_breakdown(&HwConfig::paper(), &AreaModel::default());
        let total = report.total_mm2();
        row(&["module".into(), "mm^2".into(), "share".into()]);
        for (name, mm2) in [
            ("SA computation engine", report.sa_mm2),
            ("memory modules", report.memory_mm2),
            ("PAG", report.pag_mm2),
            ("CIM", report.cim_mm2),
            ("CAG", report.cag_mm2),
        ] {
            row(&[name.into(), format!("{mm2:.3}"), format!("{:.1}%", mm2 / total * 100.0)]);
        }
        row(&["total".into(), format!("{total:.3}"), "100%".into()]);
        println!();
        println!("paper: total 2.150 mm^2, SA 74.6%, auxiliary modules small");
        Ok(())
    })
}
