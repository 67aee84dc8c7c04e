#include "system/results.hh"

#include <cmath>
#include <sstream>

#include "common/logging.hh"
#include "power/power_model.hh"
#include "system/metrics.hh"

namespace fbdp {

ColumnValue
ColumnValue::ofText(std::string v)
{
    ColumnValue c;
    c.kind = ColumnKind::Text;
    c.text = std::move(v);
    return c;
}

ColumnValue
ColumnValue::ofCount(std::uint64_t v)
{
    ColumnValue c;
    c.kind = ColumnKind::Count;
    c.count = v;
    return c;
}

ColumnValue
ColumnValue::ofReal(double v)
{
    ColumnValue c;
    c.kind = ColumnKind::Real;
    c.real = v;
    return c;
}

std::string
ColumnValue::csv() const
{
    switch (kind) {
      case ColumnKind::Text:
        return text;
      case ColumnKind::Count:
        return std::to_string(count);
      case ColumnKind::Real: {
        // Default ostream formatting, so rows match what the legacy
        // csvRow() printed through operator<<.
        std::ostringstream os;
        os << real;
        return os.str();
      }
    }
    panic("unhandled column kind");
}

std::string
ColumnValue::json() const
{
    switch (kind) {
      case ColumnKind::Text:
        return '"' + jsonEscape(text) + '"';
      case ColumnKind::Count:
        return std::to_string(count);
      case ColumnKind::Real: {
        if (!std::isfinite(real))
            return "null"; // NaN/Inf are not valid JSON numbers
        std::ostringstream os;
        os << real;
        return os.str();
      }
    }
    panic("unhandled column kind");
}

ResultSchema &
ResultSchema::add(Column c)
{
    fbdp_assert(!c.name.empty() && c.get,
                "result column needs a name and an accessor");
    cols.push_back(std::move(c));
    return *this;
}

const ResultSchema &
ResultSchema::sweepRows()
{
    // Thread-safe one-time init (C++11 magic static); const after.
    static const ResultSchema schema = [] {
        ResultSchema s;
        auto text = [](std::string name, std::string desc,
                       std::function<std::string(const SweepRow &)> f) {
            return Column{std::move(name), "", std::move(desc),
                          ColumnKind::Text,
                          [f = std::move(f)](const SweepRow &r) {
                              return ColumnValue::ofText(f(r));
                          }};
        };
        auto count =
            [](std::string name, std::string unit, std::string desc,
               std::function<std::uint64_t(const SweepRow &)> f) {
                return Column{std::move(name), std::move(unit),
                              std::move(desc), ColumnKind::Count,
                              [f = std::move(f)](const SweepRow &r) {
                                  return ColumnValue::ofCount(f(r));
                              }};
            };
        auto real = [](std::string name, std::string unit,
                       std::string desc,
                       std::function<double(const SweepRow &)> f) {
            return Column{std::move(name), std::move(unit),
                          std::move(desc), ColumnKind::Real,
                          [f = std::move(f)](const SweepRow &r) {
                              return ColumnValue::ofReal(f(r));
                          }};
        };

        s.add(text("config", "machine configuration name",
                   [](const SweepRow &r) { return r.config; }));
        s.add(text("mix", "workload mix name",
                   [](const SweepRow &r) { return r.mix; }));
        s.add(count("seed", "", "RNG seed of this repeat",
                    [](const SweepRow &r) { return r.seed; }));
        s.add(real("ipc_sum", "insts/cycle",
                   "sum of per-core IPCs (throughput)",
                   [](const SweepRow &r) {
                       return r.result.ipcSum();
                   }));
        s.add(real("bandwidth_gbs", "GB/s",
                   "utilized channel bandwidth",
                   [](const SweepRow &r) {
                       return r.result.bandwidthGBs;
                   }));
        s.add(real("avg_read_latency_ns", "ns",
                   "mean read latency, MC arrival to data at MC",
                   [](const SweepRow &r) {
                       return r.result.avgReadLatencyNs;
                   }));
        s.add(count("reads", "ops", "memory reads served",
                    [](const SweepRow &r) { return r.result.reads; }));
        s.add(count("writes", "ops", "memory writes served",
                    [](const SweepRow &r) { return r.result.writes; }));
        s.add(count("amb_hits", "ops", "reads served by the AMB cache",
                    [](const SweepRow &r) {
                        return r.result.ambHits;
                    }));
        s.add(real("coverage", "ratio", "prefetch hits / reads",
                   [](const SweepRow &r) {
                       return r.result.coverage;
                   }));
        s.add(real("efficiency", "ratio",
                   "prefetch hits / prefetches issued",
                   [](const SweepRow &r) {
                       return r.result.efficiency;
                   }));
        s.add(count("act_pre", "ops", "DRAM activate/precharge pairs",
                    [](const SweepRow &r) {
                        return r.result.ops.actPre;
                    }));
        s.add(count("cas", "ops", "DRAM column accesses (rd+wr)",
                    [](const SweepRow &r) {
                        return r.result.ops.cas();
                    }));
        s.add(count("refresh", "ops", "DRAM auto-refresh commands",
                    [](const SweepRow &r) {
                        return r.result.ops.refresh;
                    }));
        s.add(real("insts", "insts",
                   "instructions executed in the window, all cores",
                   [](const SweepRow &r) {
                       return r.result.totalInsts();
                   }));
        s.add(real("sim_us", "us", "simulated measurement window",
                   [](const SweepRow &r) {
                       return static_cast<double>(
                                  r.result.measuredTicks)
                           * 1e-6;
                   }));
        return s;
    }();
    return schema;
}

const ResultSchema &
ResultSchema::kernelStats()
{
    static const ResultSchema schema = [] {
        ResultSchema s;
        auto count =
            [](std::string name, std::string unit, std::string desc,
               std::function<std::uint64_t(const SweepRow &)> f) {
                return Column{std::move(name), std::move(unit),
                              std::move(desc), ColumnKind::Count,
                              [f = std::move(f)](const SweepRow &r) {
                                  return ColumnValue::ofCount(f(r));
                              }};
            };
        auto real = [](std::string name, std::string unit,
                       std::string desc,
                       std::function<double(const SweepRow &)> f) {
            return Column{std::move(name), std::move(unit),
                          std::move(desc), ColumnKind::Real,
                          [f = std::move(f)](const SweepRow &r) {
                              return ColumnValue::ofReal(f(r));
                          }};
        };

        s.add(Column{"config", "", "machine configuration name",
                     ColumnKind::Text, [](const SweepRow &r) {
                         return ColumnValue::ofText(r.config);
                     }});
        s.add(Column{"mix", "", "workload mix name", ColumnKind::Text,
                     [](const SweepRow &r) {
                         return ColumnValue::ofText(r.mix);
                     }});
        s.add(count("events_dispatched", "events",
                    "event callbacks invoked",
                    [](const SweepRow &r) {
                        return r.result.kernel.eventsDispatched;
                    }));
        s.add(count("schedules", "ops", "schedule() of an idle event",
                    [](const SweepRow &r) {
                        return r.result.kernel.schedules;
                    }));
        s.add(count("reschedules", "ops",
                    "schedule() of a live event (moved in place)",
                    [](const SweepRow &r) {
                        return r.result.kernel.reschedules;
                    }));
        s.add(count("deschedules", "ops",
                    "deschedule() of a live event",
                    [](const SweepRow &r) {
                        return r.result.kernel.deschedules;
                    }));
        s.add(count("peak_queue_depth", "events",
                    "max simultaneous live events in the run's queue",
                    [](const SweepRow &r) {
                        return r.result.kernel.peakQueueDepth;
                    }));
        s.add(count("pool_acquires", "ops",
                    "transactions handed out by the pool",
                    [](const SweepRow &r) {
                        return r.result.kernel.poolAcquires;
                    }));
        s.add(count("pool_reuses", "ops",
                    "pool acquires served from the freelist",
                    [](const SweepRow &r) {
                        return r.result.kernel.poolReuses;
                    }));
        s.add(count("pool_high_water", "objects",
                    "max simultaneously live transactions",
                    [](const SweepRow &r) {
                        return r.result.kernel.poolHighWater;
                    }));
        s.add(count("pool_capacity", "objects",
                    "transaction objects ever carved by the pool",
                    [](const SweepRow &r) {
                        return r.result.kernel.poolCapacity;
                    }));
        s.add(real("host_event_seconds", "s",
                   "host wall time inside the event-driven phases",
                   [](const SweepRow &r) {
                       return r.result.kernel.hostEventSeconds;
                   }));
        s.add(real("events_per_sec", "events/s",
                   "dispatch throughput over the event-driven phases",
                   [](const SweepRow &r) {
                       return r.result.kernel.eventsPerSec();
                   }));
        s.add(real("insts_per_sec", "insts/s",
                   "simulated instructions per host second",
                   [](const SweepRow &r) {
                       return r.result.instsPerHostSec();
                   }));
        return s;
    }();
    return schema;
}

const ResultSchema &
ResultSchema::latencyPercentiles()
{
    static const ResultSchema schema = [] {
        ResultSchema s;
        s.add(Column{"config", "", "machine configuration name",
                     ColumnKind::Text, [](const SweepRow &r) {
                         return ColumnValue::ofText(r.config);
                     }});
        s.add(Column{"mix", "", "workload mix name", ColumnKind::Text,
                     [](const SweepRow &r) {
                         return ColumnValue::ofText(r.mix);
                     }});
        s.add(Column{"seed", "", "RNG seed of this repeat",
                     ColumnKind::Count, [](const SweepRow &r) {
                         return ColumnValue::ofCount(r.seed);
                     }});

        struct Class
        {
            const char *key;
            const char *what;
            LatencyClassStats RunResult::*stats;
        };
        static const Class classes[] = {
            {"demand", "demand reads that missed every buffer",
             &RunResult::latDemand},
            {"pref_hit", "reads served by the AMB/MC buffer",
             &RunResult::latPrefHit},
            {"write", "posted-write completions",
             &RunResult::latWrite},
        };
        for (const Class &c : classes) {
            const auto m = c.stats;
            s.add(Column{std::string(c.key) + "_samples", "ops",
                         std::string(c.what) + ": sample count",
                         ColumnKind::Count, [m](const SweepRow &r) {
                             return ColumnValue::ofCount(
                                 (r.result.*m).samples);
                         }});
            struct Pct
            {
                const char *suffix;
                double LatencyClassStats::*val;
            };
            static const Pct pcts[] = {
                {"_p50_ns", &LatencyClassStats::p50Ns},
                {"_p95_ns", &LatencyClassStats::p95Ns},
                {"_p99_ns", &LatencyClassStats::p99Ns},
            };
            for (const Pct &p : pcts) {
                const auto v = p.val;
                s.add(Column{std::string(c.key) + p.suffix, "ns",
                             std::string(c.what) + ": latency "
                                 + (p.suffix + 1),
                             ColumnKind::Real, [m, v](const SweepRow &r) {
                                 return ColumnValue::ofReal(
                                     (r.result.*m).*v);
                             }});
            }
        }
        s.add(Column{"late_prefetch_hits", "ops",
                     "prefetch hits whose fill was still in flight",
                     ColumnKind::Count, [](const SweepRow &r) {
                         return ColumnValue::ofCount(
                             r.result.prefetch.lateHits);
                     }});
        return s;
    }();
    return schema;
}

const ResultSchema &
ResultSchema::prefetchStats()
{
    static const ResultSchema schema = [] {
        ResultSchema s;
        s.add(Column{"config", "", "machine configuration name",
                     ColumnKind::Text, [](const SweepRow &r) {
                         return ColumnValue::ofText(r.config);
                     }});
        s.add(Column{"mix", "", "workload mix name", ColumnKind::Text,
                     [](const SweepRow &r) {
                         return ColumnValue::ofText(r.mix);
                     }});
        s.add(Column{"seed", "", "RNG seed of this repeat",
                     ColumnKind::Count, [](const SweepRow &r) {
                         return ColumnValue::ofCount(r.seed);
                     }});
        s.add(Column{"policy", "", "prefetch policy: region or none",
                     ColumnKind::Text, [](const SweepRow &r) {
                         return ColumnValue::ofText(
                             r.result.prefetch.policy);
                     }});

        auto count =
            [](std::string name, std::string desc,
               std::uint64_t PrefetchRunStats::*m) {
                return Column{std::move(name), "ops", std::move(desc),
                              ColumnKind::Count,
                              [m](const SweepRow &r) {
                                  return ColumnValue::ofCount(
                                      r.result.prefetch.*m);
                              }};
            };
        s.add(count("issued", "region lines fetched into the buffer",
                    &PrefetchRunStats::issued));
        s.add(count("hits", "demand reads served by a prefetch",
                    &PrefetchRunStats::hits));
        s.add(count("late_hits",
                    "hits whose fill was still in flight",
                    &PrefetchRunStats::lateHits));
        s.add(count("dropped", "region lines past the 15-line group cap",
                    &PrefetchRunStats::dropped));
        s.add(count("evicted_unused",
                    "prefetched lines displaced before any use",
                    &PrefetchRunStats::evictedUnused));
        s.add(count("invalidated_unused",
                    "prefetched lines written before any use",
                    &PrefetchRunStats::invalidatedUnused));

        auto real = [](std::string name, std::string desc,
                       std::function<double(const SweepRow &)> f) {
            return Column{std::move(name), "ratio", std::move(desc),
                          ColumnKind::Real,
                          [f = std::move(f)](const SweepRow &r) {
                              return ColumnValue::ofReal(f(r));
                          }};
        };
        s.add(real("coverage", "prefetch hits / reads",
                   [](const SweepRow &r) {
                       return r.result.coverage;
                   }));
        s.add(real("accuracy", "prefetch hits / prefetches issued",
                   [](const SweepRow &r) {
                       return r.result.efficiency;
                   }));
        s.add(real("lateness", "late hits / hits",
                   [](const SweepRow &r) {
                       return r.result.prefetch.lateness();
                   }));
        s.add(real("pollution",
                   "unused displaced or invalidated / issued",
                   [](const SweepRow &r) {
                       return r.result.prefetch.pollution();
                   }));
        return s;
    }();
    return schema;
}

const ResultSchema &
ResultSchema::powerStats()
{
    static const ResultSchema schema = [] {
        ResultSchema s;
        s.add(Column{"config", "", "machine configuration name",
                     ColumnKind::Text, [](const SweepRow &r) {
                         return ColumnValue::ofText(r.config);
                     }});
        s.add(Column{"mix", "", "workload mix name", ColumnKind::Text,
                     [](const SweepRow &r) {
                         return ColumnValue::ofText(r.mix);
                     }});
        s.add(Column{"seed", "", "RNG seed of this repeat",
                     ColumnKind::Count, [](const SweepRow &r) {
                         return ColumnValue::ofCount(r.seed);
                     }});
        auto count = [](std::string name, std::string desc,
                        std::function<std::uint64_t(
                            const SweepRow &)> f) {
            return Column{std::move(name), "ops", std::move(desc),
                          ColumnKind::Count,
                          [f = std::move(f)](const SweepRow &r) {
                              return ColumnValue::ofCount(f(r));
                          }};
        };
        auto real = [](std::string name, std::string unit,
                       std::string desc,
                       std::function<double(const SweepRow &)> f) {
            return Column{std::move(name), std::move(unit),
                          std::move(desc), ColumnKind::Real,
                          [f = std::move(f)](const SweepRow &r) {
                              return ColumnValue::ofReal(f(r));
                          }};
        };
        s.add(count("act_pre", "DRAM activate/precharge pairs",
                    [](const SweepRow &r) {
                        return r.result.ops.actPre;
                    }));
        s.add(count("cas", "DRAM column accesses (rd+wr)",
                    [](const SweepRow &r) {
                        return r.result.ops.cas();
                    }));
        s.add(count("refresh", "DRAM auto-refresh commands",
                    [](const SweepRow &r) {
                        return r.result.ops.refresh;
                    }));
        s.add(real("dynamic_energy", "CAU",
                   "dynamic energy over the window, column-access "
                   "units (ACT/PRE weighted 4x per the Micron "
                   "calibration)",
                   [](const SweepRow &r) {
                       return PowerModel{}.dynamicEnergy(r.result.ops);
                   }));
        s.add(real("dynamic_power", "CAU/s",
                   "dynamic power over the window (the Fig. 13 "
                   "numerator before normalisation)",
                   [](const SweepRow &r) {
                       return PowerModel{}.dynamicPower(
                           r.result.ops, r.result.measuredTicks);
                   }));
        s.add(real("energy_per_inst", "CAU/inst",
                   "dynamic energy per instruction in the window",
                   [](const SweepRow &r) {
                       const double insts = r.result.totalInsts();
                       return insts > 0.0
                           ? PowerModel{}.dynamicEnergy(r.result.ops)
                               / insts
                           : 0.0;
                   }));
        return s;
    }();
    return schema;
}

const ResultSchema &
ResultSchema::latencyBreakdown()
{
    static const ResultSchema schema = [] {
        ResultSchema s;
        s.add(Column{"config", "", "machine configuration name",
                     ColumnKind::Text, [](const SweepRow &r) {
                         return ColumnValue::ofText(r.config);
                     }});
        s.add(Column{"mix", "", "workload mix name", ColumnKind::Text,
                     [](const SweepRow &r) {
                         return ColumnValue::ofText(r.mix);
                     }});
        s.add(Column{"seed", "", "RNG seed of this repeat",
                     ColumnKind::Count, [](const SweepRow &r) {
                         return ColumnValue::ofCount(r.seed);
                     }});

        for (unsigned c = 0; c < numLatClasses; ++c) {
            const std::string cn =
                latClassName(static_cast<LatClass>(c));
            s.add(Column{cn + "_samples", "ops",
                         cn + " transactions completed",
                         ColumnKind::Count, [c](const SweepRow &r) {
                             return ColumnValue::ofCount(
                                 r.result.attribution.total.cls[c]
                                     .samples);
                         }});
            s.add(Column{cn + "_total_ns", "ns",
                         cn + ": mean end-to-end latency",
                         ColumnKind::Real, [c](const SweepRow &r) {
                             return ColumnValue::ofReal(
                                 r.result.attribution.total.cls[c]
                                     .meanTotalNs());
                         }});
            for (unsigned p = 0; p < numLatPhases; ++p) {
                const std::string pn =
                    latPhaseName(static_cast<LatPhase>(p));
                s.add(Column{cn + "_" + pn + "_ns", "ns",
                             cn + ": mean time in the " + pn
                                 + " phase",
                             ColumnKind::Real,
                             [c, p](const SweepRow &r) {
                                 return ColumnValue::ofReal(
                                     r.result.attribution.total
                                         .cls[c]
                                         .meanPhaseNs(p));
                             }});
            }
        }
        return s;
    }();
    return schema;
}

std::string
ResultSchema::csvHeader() const
{
    std::string out;
    for (size_t i = 0; i < cols.size(); ++i) {
        if (i)
            out += ',';
        out += cols[i].name;
    }
    return out;
}

std::string
ResultSchema::csvRow(const SweepRow &row) const
{
    std::string out;
    for (size_t i = 0; i < cols.size(); ++i) {
        if (i)
            out += ',';
        out += cols[i].get(row).csv();
    }
    return out;
}

std::string
ResultSchema::jsonRow(const SweepRow &row) const
{
    std::string out = "{";
    for (size_t i = 0; i < cols.size(); ++i) {
        if (i)
            out += ", ";
        out += '"' + jsonEscape(cols[i].name) + "\": "
            + cols[i].get(row).json();
    }
    out += '}';
    return out;
}

void
ResultSchema::writeJson(const std::vector<SweepRow> &rows,
                        std::ostream &os,
                        const std::string &manifest_json) const
{
    static const char *kindNames[] = {"text", "count", "real"};
    os << "{\n";
    if (!manifest_json.empty())
        os << "  \"manifest\": " << manifest_json << ",\n";
    os << "  \"columns\": [\n";
    for (size_t i = 0; i < cols.size(); ++i) {
        os << "    {\"name\": \"" << jsonEscape(cols[i].name)
           << "\", \"unit\": \"" << jsonEscape(cols[i].unit)
           << "\", \"kind\": \""
           << kindNames[static_cast<int>(cols[i].kind)]
           << "\", \"desc\": \"" << jsonEscape(cols[i].desc) << "\"}"
           << (i + 1 < cols.size() ? "," : "") << '\n';
    }
    os << "  ],\n  \"rows\": [\n";
    for (size_t i = 0; i < rows.size(); ++i) {
        os << "    " << jsonRow(rows[i])
           << (i + 1 < rows.size() ? "," : "") << '\n';
    }
    os << "  ]\n}\n";
}

} // namespace fbdp
