//! Golden simulated outputs and the check every pass runs against them.
//!
//! A job's output is the canonical compact JSON of what a user reads
//! from it: `job_time` and the `Counters` for a DES job; makespan, jobs
//! completed, shuffled bytes and the tenant percentiles for a multijob
//! stream. `sim_work` is left out on purpose: it is due to be
//! redefined. Each workload's golden file keeps those outputs in full
//! for the default ring seed 0 and an FNV-1a digest of every job's
//! output for every ring seed, so passes at any seed are checked.

use mapreduce::job::JobResult;
use mapreduce::multijob::MultiJobResult;
use simcore::jobj;
use simcore::json::Json;

use crate::workload::{Workload, RING};

const SCHEMA: &str = "hostbench-golden-v1";

/// Canonical output of one DES job.
pub fn des_output(result: &JobResult) -> String {
    jobj! {
        "job_time_ns": result.job_time.as_nanos(),
        "counters": result.counters.to_json(),
    }
    .to_compact()
}

/// Canonical output of one multijob stream.
pub fn multi_output(result: &MultiJobResult) -> String {
    result.to_json().to_compact()
}

/// 64-bit FNV-1a digest of an output, as 16 hex digits.
pub fn digest(output: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in output.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// The golden outputs of one workload.
#[derive(Clone, Debug, PartialEq)]
pub struct Golden {
    /// Full outputs of every job at ring seed 0.
    pub default: Vec<String>,
    /// Per ring seed, the digest of every job's output.
    pub digests: Vec<Vec<String>>,
}

impl Golden {
    /// Build from the outputs of every ring seed, in ring order.
    pub fn from_outputs(outputs: &[Vec<String>]) -> Golden {
        Golden {
            default: outputs.first().cloned().unwrap_or_default(),
            digests: outputs
                .iter()
                .map(|jobs| jobs.iter().map(|o| digest(o)).collect())
                .collect(),
        }
    }

    /// The committed golden outputs of `workload`.
    pub fn committed(workload: Workload) -> Result<Golden, String> {
        let text = match workload {
            Workload::PaperGrid => include_str!("../golden/paper-grid.json"),
            Workload::WideAvg => include_str!("../golden/wide-avg.json"),
            Workload::MultijobRack => include_str!("../golden/multijob-rack.json"),
        };
        Golden::from_json(&Json::parse(text)?)
    }

    /// True when job `job` of the pass at ring seed `ring` produced
    /// exactly its golden output.
    pub fn matches(&self, ring: u64, job: usize, output: &str) -> bool {
        let digest_ok = self
            .digests
            .get(ring as usize)
            .and_then(|jobs| jobs.get(job))
            .is_some_and(|d| *d == digest(output));
        let full_ok = ring != 0 || self.default.get(job).is_some_and(|d| d == output);
        digest_ok && full_ok
    }

    /// The golden-file encoding.
    pub fn to_json(&self, workload: Workload) -> Result<Json, String> {
        let default = self
            .default
            .iter()
            .map(|o| Json::parse(o))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(jobj! {
            "schema": SCHEMA,
            "workload": workload.name(),
            "ring": RING,
            "default": Json::Arr(default),
            "digests": Json::Arr(
                self.digests.iter().map(|jobs| Json::from(jobs.join(" "))).collect(),
            ),
        })
    }

    /// Parse the golden-file encoding.
    pub fn from_json(json: &Json) -> Result<Golden, String> {
        if json.field_str("schema")? != SCHEMA {
            return Err(format!("golden file is not {SCHEMA}"));
        }
        let default = json
            .field_arr("default")?
            .iter()
            .map(Json::to_compact)
            .collect();
        let digests = json
            .field_arr("digests")?
            .iter()
            .map(|d| {
                d.as_str()
                    .map(|s| s.split_whitespace().map(str::to_string).collect())
                    .ok_or_else(|| "golden digests must be strings".to_string())
            })
            .collect::<Result<Vec<Vec<String>>, _>>()?;
        if digests.len() != RING as usize {
            return Err(format!(
                "golden file has {} ring seeds, want {RING}",
                digests.len()
            ));
        }
        Ok(Golden { default, digests })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::plan;

    fn outputs() -> Vec<Vec<String>> {
        (0..RING)
            .map(|r| {
                vec![
                    format!(
                        r#"{{"job_time_ns":{},"counters":{{"maps_completed":16}}}}"#,
                        1000 + r
                    ),
                    format!(
                        r#"{{"job_time_ns":{},"counters":{{"maps_completed":16}}}}"#,
                        2000 + r
                    ),
                ]
            })
            .collect()
    }

    #[test]
    fn check_accepts_exact_outputs_and_flags_a_perturbed_golden_value() {
        let outs = outputs();
        let golden = Golden::from_outputs(&outs);
        for (ring, jobs) in outs.iter().enumerate() {
            for (j, o) in jobs.iter().enumerate() {
                assert!(golden.matches(ring as u64, j, o));
            }
        }
        // A perturbed full value at the default seed is caught.
        let mut perturbed = golden.clone();
        perturbed.default[1] = perturbed.default[1].replace("2000", "2001");
        assert!(!perturbed.matches(0, 1, &outs[0][1]));
        assert!(perturbed.matches(0, 0, &outs[0][0]));
        // A perturbed digest at another seed is caught.
        let mut perturbed = golden.clone();
        perturbed.digests[5][0] = digest("something else");
        assert!(!perturbed.matches(5, 0, &outs[5][0]));
        // A perturbed output is caught, and so is a job past the list.
        assert!(!golden.matches(9, 0, &outs[9][0].replace("1009", "1010")));
        assert!(!golden.matches(9, 2, &outs[9][0]));
    }

    #[test]
    fn golden_encoding_round_trips() {
        let golden = Golden::from_outputs(&outputs());
        let json = golden.to_json(Workload::WideAvg).unwrap();
        let back = Golden::from_json(&Json::parse(&json.to_pretty()).unwrap()).unwrap();
        assert_eq!(back, golden);
    }

    #[test]
    fn committed_golden_files_cover_every_ring_seed_and_job() {
        for w in Workload::ALL {
            let golden = Golden::committed(w).unwrap();
            let jobs = match plan(w, 0) {
                crate::workload::Plan::Multi(_) => 1,
                p => p.configs().len(),
            };
            assert_eq!(golden.default.len(), jobs, "{}", w.name());
            assert!(golden.digests.iter().all(|d| d.len() == jobs));
        }
    }
}
