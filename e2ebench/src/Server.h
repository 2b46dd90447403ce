//===- e2ebench/src/Server.h - A patch server set up like `serve` -*- C++ -*-===//
//
// Part of the Exterminator reproduction (Novark, Berger & Zorn, PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One PatchServer assembled the way `xtermtool serve --state-dir`
/// assembles it: a MetricsRegistry every subsystem attaches to, a
/// StateStore (journal + fsync + snapshots), a SocketPatchServer
/// front-end on a Unix socket, and optionally a ReplicaSet streaming to
/// in-process replica servers over loopback links.
///
//===----------------------------------------------------------------------===//

#ifndef E2EBENCH_SERVER_H
#define E2EBENCH_SERVER_H

#include "exchange/PatchServer.h"
#include "exchange/Replication.h"
#include "exchange/SocketTransport.h"
#include "exchange/StateStore.h"
#include "observe/MetricsRegistry.h"

#include <memory>
#include <string>
#include <vector>

namespace xbench {

class ServedPatchServer {
public:
  ServedPatchServer() = default;
  ServedPatchServer(const ServedPatchServer &) = delete;
  ServedPatchServer &operator=(const ServedPatchServer &) = delete;

  /// Starts from an empty \p StateDir, attaches \p Replicas in-process
  /// replica servers, and serves on unix:\p SocketPath with \p Workers
  /// connection workers.  False (with \p Error) on any failure.
  bool start(const std::string &StateDir, const std::string &SocketPath,
             unsigned Workers, unsigned Replicas, std::string &Error);

  /// Stops the front-end and the replication pump, then writes the
  /// shutdown snapshot (as `serve` does on exit); false when it failed.
  bool stop();

  exterminator::PatchServer &server() { return Server; }
  exterminator::MetricsRegistry &registry() { return Registry; }
  const exterminator::Endpoint &endpoint() const { return Front->endpoint(); }
  exterminator::ReplicaSet *replicaSet() { return ReplicaLinks.get(); }
  std::vector<exterminator::PatchServer *> replicas() const;

  ~ServedPatchServer() { stop(); }

private:
  // Declaration order is teardown order in reverse: the front-end and
  // the replication pump (which call into the servers) go first.
  exterminator::MetricsRegistry Registry;
  exterminator::PatchServer Server;
  std::vector<std::unique_ptr<exterminator::PatchServer>> ReplicaServers;
  std::unique_ptr<exterminator::StateStore> Store;
  std::unique_ptr<exterminator::ReplicaSet> ReplicaLinks;
  std::unique_ptr<exterminator::SocketPatchServer> Front;
  bool Stopped = false;
};

} // namespace xbench

#endif // E2EBENCH_SERVER_H
