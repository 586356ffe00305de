// Round-trip tests for the two repro-string grammars: --faults=
// (sim/fault.h, format_fault_spec/parse_fault_spec) and --soak=
// (soak/event.h, format_soak_spec/parse_soak_spec). The printed form of a
// spec is the replay contract the harnesses hand to the user — parse must
// invert format exactly, and malformed strings must fail loudly instead of
// silently replaying a different scenario.
//
// The replay tool's command line (examples/replay, parse_replay_args) rides
// the same contract one level up: every repro line the oracles print must
// parse, and a flag replay does not read — a removed one, or a typo — must
// be rejected instead of silently replaying a different run.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "sim/fault.h"
#include "soak/event.h"
#include "support/check.h"
#include "support/cli.h"
#include "verify/fault_oracles.h"
#include "verify/scenario.h"
#include "verify/soak_oracles.h"

namespace fdlsp {
namespace {

TEST(FaultSpecGrammar, DefaultSpecFormatsAsNone) {
  EXPECT_EQ(format_fault_spec(FaultSpec{}), "none");
}

TEST(FaultSpecGrammar, NoneAndEmptyParseToDefault) {
  EXPECT_EQ(parse_fault_spec("none"), FaultSpec{});
  EXPECT_EQ(parse_fault_spec(""), FaultSpec{});
}

TEST(FaultSpecGrammar, FullSpecRoundTrips) {
  FaultSpec spec;
  spec.seed = 7;
  spec.drop_rate = 0.1;
  spec.duplicate_rate = 0.05;
  spec.corrupt_rate = 0.02;
  spec.max_losses_per_channel = 3;
  spec.crash_fraction = 0.25;
  spec.crash_horizon = 32.0;
  spec.link_down_fraction = 0.125;
  spec.link_down_horizon = 8.0;
  spec.link_down_duration = 2.5;
  const std::string text = format_fault_spec(spec);
  EXPECT_EQ(parse_fault_spec(text), spec);
  // The printed form is itself a fixed point: format ∘ parse ∘ format is
  // format, so repro strings stay byte-stable across replays.
  EXPECT_EQ(format_fault_spec(parse_fault_spec(text)), text);
}

TEST(FaultSpecGrammar, PartialSpecRoundTrips) {
  FaultSpec spec;
  spec.drop_rate = 0.3;
  const std::string text = format_fault_spec(spec);
  EXPECT_EQ(text, "drop=0.3");
  EXPECT_EQ(parse_fault_spec(text), spec);
}

TEST(FaultSpecGrammar, BurstSpecRoundTrips) {
  FaultSpec spec;
  spec.burst_rate = 0.05;
  spec.burst_recover = 0.25;
  spec.burst_loss = 0.9;
  spec.burst_max_run = 6;
  spec.burst_cap = 12;
  const std::string text = format_fault_spec(spec);
  EXPECT_EQ(text, "bp=0.05,bq=0.25,bloss=0.9,bmax=6,bcap=12");
  EXPECT_EQ(parse_fault_spec(text), spec);
  EXPECT_EQ(format_fault_spec(parse_fault_spec(text)), text);
}

TEST(FaultSpecGrammar, PrrLevelsRoundTripColonSeparated) {
  FaultSpec spec;
  spec.prr_levels = {0.9, 0.75, 0.5};
  const std::string text = format_fault_spec(spec);
  EXPECT_EQ(text, "prr=0.9:0.75:0.5");
  EXPECT_EQ(parse_fault_spec(text), spec);
  EXPECT_EQ(format_fault_spec(parse_fault_spec(text)), text);
}

TEST(FaultSpecGrammar, RegionOutageSpecRoundTrips) {
  FaultSpec spec;
  spec.region_count = 3;
  spec.region_radius = 0.5;
  spec.region_horizon = 24.0;
  spec.region_duration = 6.0;
  const std::string text = format_fault_spec(spec);
  EXPECT_EQ(text, "regions=3,regionr=0.5,regionh=24,regiond=6");
  EXPECT_EQ(parse_fault_spec(text), spec);
  EXPECT_EQ(format_fault_spec(parse_fault_spec(text)), text);
}

TEST(FaultSpecGrammar, MixedCorrelatedSpecRoundTrips) {
  FaultSpec spec;
  spec.seed = 11;
  spec.drop_rate = 0.05;
  spec.burst_rate = 0.1;
  spec.prr_levels = {0.8};
  spec.region_count = 1;
  spec.crash_fraction = 0.2;
  const std::string text = format_fault_spec(spec);
  EXPECT_EQ(parse_fault_spec(text), spec);
  EXPECT_EQ(format_fault_spec(parse_fault_spec(text)), text);
}

TEST(FaultSpecGrammar, MalformedEntriesAreRejected) {
  EXPECT_THROW(parse_fault_spec("drop"), contract_error);         // no '='
  EXPECT_THROW(parse_fault_spec("drop=0.1,zzz=4"), contract_error);
  EXPECT_THROW(parse_fault_spec("frobnicate=1"), contract_error);
  // Strict numeric parsing: trailing garbage and empty values fail loudly
  // instead of silently replaying a different scenario.
  EXPECT_THROW(parse_fault_spec("drop=0.1x"), contract_error);
  EXPECT_THROW(parse_fault_spec("drop="), contract_error);
  EXPECT_THROW(parse_fault_spec("bp=high"), contract_error);
  EXPECT_THROW(parse_fault_spec("bmax=3.5"), contract_error);   // not a count
  EXPECT_THROW(parse_fault_spec("bcap=-1"), contract_error);
  EXPECT_THROW(parse_fault_spec("regions=two"), contract_error);
  EXPECT_THROW(parse_fault_spec("prr=0.9:oops"), contract_error);
  EXPECT_THROW(parse_fault_spec("prr="), contract_error);
  EXPECT_THROW(parse_fault_spec("prr=0.9:"), contract_error);
}

TEST(SoakSpecGrammar, DefaultSpecFormatsAsDefault) {
  EXPECT_EQ(format_soak_spec(SoakSpec{}), "default");
}

TEST(SoakSpecGrammar, DefaultAndEmptyParseToDefault) {
  EXPECT_EQ(parse_soak_spec("default"), SoakSpec{});
  EXPECT_EQ(parse_soak_spec(""), SoakSpec{});
}

TEST(SoakSpecGrammar, FullSpecRoundTrips) {
  SoakSpec spec;
  spec.seed = 99;
  spec.n = 128;
  spec.events = 5000;
  spec.family = "grid";
  spec.density = 0.75;
  spec.side = 12.5;
  spec.radius = 1.5;
  spec.alive_fraction = 0.8;
  spec.move_step = 0.25;
  spec.join_weight = 2.0;
  spec.leave_weight = 0.0;
  spec.move_weight = 3.0;
  spec.link_down_weight = 0.5;
  spec.link_up_weight = 1.5;
  spec.repair_threshold = 0.1;
  spec.drift_band = 2.0;
  spec.skip = {1, 5, 9};
  const std::string text = format_soak_spec(spec);
  EXPECT_EQ(parse_soak_spec(text), spec);
  EXPECT_EQ(format_soak_spec(parse_soak_spec(text)), text);
}

TEST(SoakSpecGrammar, SkipListUsesDotSeparators) {
  SoakSpec spec;
  spec.skip = {3, 14, 159};
  const std::string text = format_soak_spec(spec);
  EXPECT_EQ(text, "skip=3.14.159");
  EXPECT_EQ(parse_soak_spec(text), spec);
}

TEST(SoakSpecGrammar, MalformedEntriesAreRejected) {
  EXPECT_THROW(parse_soak_spec("events"), contract_error);      // no '='
  EXPECT_THROW(parse_soak_spec("n=abc"), contract_error);       // bad int
  EXPECT_THROW(parse_soak_spec("radius=wide"), contract_error); // bad double
  EXPECT_THROW(parse_soak_spec("zzz=1"), contract_error);       // unknown key
  EXPECT_THROW(parse_soak_spec("skip=1.x.3"), contract_error);  // bad index
}

/// Parses an argv-style flag list the way examples/replay does.
CliArgs parse_replay(const std::vector<std::string>& flags) {
  std::vector<const char*> argv = {"replay"};
  for (const std::string& flag : flags) argv.push_back(flag.c_str());
  return parse_replay_args(static_cast<int>(argv.size()), argv.data());
}

/// Splits a printed repro line into its flags (repro lines never quote).
std::vector<std::string> split_flags(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> flags;
  for (std::string flag; in >> flag;) flags.push_back(flag);
  return flags;
}

TEST(ReplayFlags, UnreadFlagsAreRejectedByName) {
  const std::vector<std::string> scenario = {
      "--family=grid", "--n=12", "--density=0.50", "--seed=5",
      "--scheduler=distMIS", "--faults=drop=0.05,bp=0.2"};
  const std::vector<std::string> soak = {"--soak=seed=7,n=200,events=5000",
                                         "--faults=drop=0.1"};
  // Flags replay does not read, such as --shards= or --tuning=, and typos
  // of real flags must fail instead of replaying a different run.
  for (const std::string bad :
       {"--shards=4", "--tuning=fixed", "--fualts=drop=0.1"}) {
    const std::string name = bad.substr(0, bad.find('='));
    for (std::vector<std::string> flags : {scenario, soak}) {
      flags.push_back(bad);
      try {
        parse_replay(flags);
        ADD_FAILURE() << bad << " was accepted";
      } catch (const contract_error& error) {
        EXPECT_NE(std::string(error.what()).find("unknown flag " + name),
                  std::string::npos)
            << error.what();
      }
    }
  }
  // Each mode reads only its own flags.
  EXPECT_THROW(parse_replay({"--soak=seed=7", "--family=gnm"}),
               contract_error);
  EXPECT_THROW(parse_replay({"--family=gnm", "--soak-band=1.5"}),
               contract_error);
}

TEST(ReplayFlags, EveryPrintedReproLineParses) {
  Scenario scenario;
  scenario.family = GraphFamily::kGrid;
  scenario.n = 12;
  scenario.seed = 5;
  FaultSpec faults;
  faults.seed = 3;
  faults.drop_rate = 0.05;
  faults.burst_rate = 0.2;
  faults.region_count = 1;
  faults.prr_levels = {0.9, 0.5};
  SoakSpec soak;
  soak.seed = 7;
  soak.n = 200;
  soak.events = 5000;
  soak.skip = {3, 14};
  SoakOracleOptions band;
  band.drift_band = 1.5;

  const std::string fault_line =
      fault_repro_command(scenario, scheduler_name(SchedulerKind::kDfs),
                          faults);
  const std::string soak_line = soak_repro_command(soak, faults, false, &band);
  for (const std::string& line :
       {repro_command(scenario, SchedulerKind::kDistMisGbg), fault_line,
        fault_line + " --reliable=0", soak_repro_command(soak),
        soak_repro_command(soak, &band), soak_line}) {
    EXPECT_NO_THROW(parse_replay(split_flags(line))) << line;
  }
  // The parsed values are the printed specs, not merely accepted strings.
  const CliArgs fault_args = parse_replay(split_flags(fault_line));
  EXPECT_EQ(fault_args.get("scheduler", ""), "DFS");
  EXPECT_EQ(parse_fault_spec(fault_args.get("faults", "")), faults);
  const CliArgs soak_args = parse_replay(split_flags(soak_line));
  EXPECT_EQ(parse_soak_spec(soak_args.get("soak", "")), soak);
  EXPECT_EQ(parse_fault_spec(soak_args.get("faults", "")), faults);
  EXPECT_EQ(soak_args.get_int("reliable", 1), 0);
  EXPECT_EQ(soak_args.get_double("soak-band", 0.0), 1.5);
}

}  // namespace
}  // namespace fdlsp
