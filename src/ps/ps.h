/**
 * @file
 * Umbrella header for the sharded parameter-server training subsystem.
 *
 * From a problem to a served, cluster-trained model:
 *
 *     auto problem = dataset::generate_logistic_dense(64, 4096, 42);
 *
 *     ps::ClusterConfig cfg;
 *     cfg.workers = 4;
 *     cfg.shards = 2;
 *     cfg.codec = ps::Codec::from_bits(1); // Cs1: sign bits + magnitude
 *     cfg.tau = 8;                  // staleness bound (SSP)
 *     cfg.faults.drop_prob = 0.01;  // the fabric may lose messages
 *
 * The same cluster runs as real processes over loopback TCP via
 * ps::train_cluster_multiprocess (ps/node.h), or hand-assembled across
 * machines with `buckwild_cluster --listen / --connect / --control`.
 *
 *     serve::ModelRegistry registry;
 *     ps::ClusterResult r = ps::train_cluster(problem, cfg, &registry);
 *     // registry now holds the trained model — serve::Server instances
 *     // reading it hot-swapped onto it; r.metrics has the staleness
 *     // histogram, wire bytes, drop/retry counts, GNPS.
 */
#ifndef BUCKWILD_PS_PS_H
#define BUCKWILD_PS_PS_H

#include "ps/cluster.h"
#include "ps/metrics.h"
#include "ps/node.h"
#include "ps/quantize.h"
#include "ps/shard.h"
#include "ps/socket_transport.h"
#include "ps/transport.h"
#include "ps/wire.h"

#endif // BUCKWILD_PS_PS_H
