// Query server: serves a summary, store directory, or versioned root over
// the length-prefixed text protocol in docs/SERVING.md.
//
//   entropydb_serve --store flights.vdb [--port N] [--join PATH]
//       [--queue N] [--cache N] [--deadline-ms N]
//       [--verify-checksums on|off]
//
// --join loads a second (RIGHT) relation once at startup and enables the
// JOIN wire command against it; VERSION then advertises the "join"
// capability.
//
// Binds 127.0.0.1 (port 0 = ephemeral; the bound port is printed either
// way, so harnesses can parse it). Runs until SIGINT/SIGTERM, then drains:
// stops accepting, closes sessions, joins every worker before exiting.
//
// Versioned roots (storage/version_set.h) get the full command set —
// sessions can OPEN any retained version for snapshot-pinned reads, and
// the server picks up externally published versions (entropydb_build
// --append on the same root) without a restart. Plain stores serve
// QUERY/BATCH/STATS only.

#include <signal.h>

#include <cstdio>
#include <cstring>
#include <map>
#include <string>

#include "entropydb.h"

using namespace entropydb;

namespace {

void Usage() {
  std::fprintf(
      stderr,
      "usage: entropydb_serve --store PATH [--port N] [--join PATH]\n"
      "                       [--queue N] [--cache N] [--deadline-ms N]\n"
      "                       [--verify-checksums on|off]\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      Usage();
      return 2;
    }
    args[argv[i] + 2] = argv[i + 1];
  }
  if (!args.count("store")) {
    Usage();
    return 2;
  }

  QueryServer::Options opts;
  opts.path = args["store"];
  if (args.count("join")) opts.join_path = args["join"];
  if (args.count("port")) {
    opts.port = static_cast<uint16_t>(std::stoul(args["port"]));
  }
  if (args.count("queue")) opts.queue_capacity = std::stoul(args["queue"]);
  if (args.count("cache")) opts.cache_capacity = std::stoul(args["cache"]);
  if (args.count("deadline-ms")) {
    opts.default_deadline_ms = std::stoul(args["deadline-ms"]);
  }
  opts.summary.verify_checksums =
      !args.count("verify-checksums") || args["verify-checksums"] != "off";

  // Block the shutdown signals BEFORE Start so every thread the server
  // spawns inherits the mask and sigwait below is the only consumer.
  sigset_t mask;
  sigemptyset(&mask);
  sigaddset(&mask, SIGINT);
  sigaddset(&mask, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &mask, nullptr);

  auto server = QueryServer::Start(opts);
  if (!server.ok()) {
    std::fprintf(stderr, "serve: %s\n", server.status().ToString().c_str());
    return 1;
  }
  std::printf("serving %s on 127.0.0.1:%u\n", opts.path.c_str(),
              (*server)->port());
  std::fflush(stdout);

  int sig = 0;
  sigwait(&mask, &sig);
  std::printf("signal %d: draining\n", sig);
  (*server)->Stop();
  const QueryServer::Stats stats = (*server)->stats();
  std::printf("served %llu request(s) over %llu connection(s)\n",
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.connections));
  return 0;
}
