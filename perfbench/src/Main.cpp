//===- perfbench/src/Main.cpp - Benchmark entry point ---------------------===//
//
// perfbench <workload> --seed N --seconds S --trace 0|1 --size full|smoke
//           --work-dir DIR --reference FILE
// perfbench --gen-reference FILE SCALE...
//
// Runs one workload and prints, as its last stdout line, one JSON object:
// correct, attempted, failed, metrics ({name: [value, unit]}), samples
// (per-pass values), facts (host facts and sizes) and mismatches. run.py
// turns that into the benchmark's result line.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

using namespace perfbench;

namespace {

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20)
      continue;
    Out += C;
  }
  return Out + "\"";
}

std::string jsonNumber(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

void printResult(const Result &R) {
  std::string Out = "{\"correct\": ";
  Out += R.Failed == 0 && R.Attempted > 0 ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(R.Attempted);
  Out += ", \"failed\": " + std::to_string(R.Failed);
  Out += ", \"metrics\": {";
  const char *Sep = "";
  for (const auto &[Name, ValueUnit] : R.Metrics) {
    Out += Sep + jsonString(Name) + ": [" + jsonNumber(ValueUnit.first) +
           ", " + jsonString(ValueUnit.second) + "]";
    Sep = ", ";
  }
  Out += "}, \"samples\": {";
  Sep = "";
  for (const auto &[Name, Values] : R.Samples) {
    Out += Sep + jsonString(Name) + ": [";
    const char *Inner = "";
    for (double V : Values) {
      Out += Inner + jsonNumber(V);
      Inner = ", ";
    }
    Out += "]";
    Sep = ", ";
  }
  Out += "}, \"facts\": {";
  Sep = "";
  for (const auto &[Name, Value] : R.Facts) {
    Out += Sep + jsonString(Name) + ": " + jsonString(Value);
    Sep = ", ";
  }
  Out += "}, \"mismatches\": [";
  Sep = "";
  for (const std::string &M : R.Mismatches) {
    Out += Sep + jsonString(M);
    Sep = ", ";
  }
  Out += "]}";
  std::printf("%s\n", Out.c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench <profile-suite|repo-report|fleet-ingest> "
               "--seed N --seconds S --trace 0|1 --size full|smoke "
               "--work-dir DIR --reference FILE\n"
               "       perfbench --gen-reference FILE SCALE...\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc >= 4 && std::strcmp(Argv[1], "--gen-reference") == 0) {
    std::vector<int> Scales;
    for (int I = 3; I < Argc; ++I)
      Scales.push_back(std::atoi(Argv[I]));
    return generateReference(Argv[2], Scales);
  }
  if (Argc < 2)
    return usage();
  std::string Workload = Argv[1];
  Options O;
  for (int I = 2; I + 1 < Argc; I += 2) {
    std::string Flag = Argv[I], Value = Argv[I + 1];
    if (Flag == "--seed")
      O.Seed = std::strtoull(Value.c_str(), nullptr, 10);
    else if (Flag == "--seconds")
      O.Seconds = std::atof(Value.c_str());
    else if (Flag == "--trace")
      O.Trace = Value == "1";
    else if (Flag == "--size")
      O.Size = Value;
    else if (Flag == "--work-dir")
      O.WorkDir = Value;
    else if (Flag == "--reference")
      O.ReferencePath = Value;
    else
      return usage();
  }
  if (O.WorkDir.empty() || (O.Size != "full" && O.Size != "smoke"))
    return usage();

  Result R;
  if (Workload == "profile-suite")
    R = runProfileSuite(O);
  else if (Workload == "repo-report")
    R = runRepoReport(O);
  else if (Workload == "fleet-ingest")
    R = runFleetIngest(O);
  else
    return usage();
  R.fact("workload", Workload);
  R.fact("seed", std::to_string(O.Seed));
  R.fact("nproc", std::thread::hardware_concurrency());
  R.fact("size", O.Size);
  R.fact("trace", O.Trace ? "1" : "0");
  R.Attempted += R.Attempted == 0; // a run that failed before any work
  printResult(R);
  return R.Failed == 0 ? 0 : 1;
}
