//===- e2ebench/src/Server.cpp - A patch server set up like `serve` -------===//
//
// Part of the Exterminator reproduction (Novark, Berger & Zorn, PLDI 2007).
//
//===----------------------------------------------------------------------===//

#include "Server.h"

#include "Bench.h"

#include "exchange/Transport.h"

using namespace exterminator;
using namespace xbench;

bool ServedPatchServer::start(const std::string &StateDir,
                              const std::string &SocketPath, unsigned Workers,
                              unsigned Replicas, std::string &Error) {
  registerCodecMetrics(Registry);
  Server.attachMetrics(Registry);

  // Replication attaches before any state arrives (as in `serve`).
  if (Replicas) {
    ReplicaLinks = std::make_unique<ReplicaSet>(Server);
    for (unsigned I = 0; I < Replicas; ++I) {
      ReplicaServers.push_back(std::make_unique<PatchServer>());
      ReplicaLinks->addPeer(
          "replica" + std::to_string(I),
          std::make_unique<LoopbackTransport>(*ReplicaServers.back()));
    }
    ReplicaLinks->attachMetrics(Registry);
  }

  if (!freshDirectory(StateDir)) {
    Error = "cannot create state dir " + StateDir;
    return false;
  }
  Store = std::make_unique<StateStore>(StateDir);
  Store->setSnapshotKeep(2);
  Store->attachMetrics(Registry);
  if (!Server.attachState(*Store, /*SnapshotInterval=*/64, &Error))
    return false;

  Front = std::make_unique<SocketPatchServer>(Server, Workers);
  Front->attachMetrics(Registry);
  Endpoint Ep;
  if (!parseEndpoint("unix:" + SocketPath, Ep) || !Front->listen(Ep)) {
    Error = "cannot listen on unix:" + SocketPath;
    return false;
  }
  if (ReplicaLinks)
    ReplicaLinks->start(/*IntervalMs=*/1000);
  if (!Front->start()) {
    Error = "cannot start the socket front-end";
    return false;
  }
  return true;
}

bool ServedPatchServer::stop() {
  if (Stopped || !Front)
    return true;
  Stopped = true;
  Front->stop();
  if (ReplicaLinks)
    ReplicaLinks->stop();
  return Server.persistNow();
}

std::vector<PatchServer *> ServedPatchServer::replicas() const {
  std::vector<PatchServer *> Out;
  for (const auto &R : ReplicaServers)
    Out.push_back(R.get());
  return Out;
}
