#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

// The benchmark's inputs. The worlds are fixed datasets; the request
// streams are drawn from the workload seed. The engine sees only the
// generated query texts.

#include <cstdint>
#include <string>
#include <vector>

#include "eval/qrels.h"
#include "synth/kg_generator.h"

namespace perfbench {

namespace eval = trinit::eval;
namespace synth = trinit::synth;

struct Request {
  std::string text;
  size_t family = 0;  ///< index into `Stream::families`
  std::string qid;    ///< judged query id in `Stream::qrels`, or empty
};

struct Stream {
  std::vector<std::string> families;
  std::vector<Request> requests;
  eval::Qrels qrels;
};

/// `WorldSpec::Scaled(50000)`: about 38k XKG triples, larger than L2.
synth::World LargeWorld();
/// `WorldSpec::Scaled(13000)`: about 10k XKG triples, fits in L2.
synth::World SmallWorld();

/// `count` distinct entity-relationship queries of all six archetypes
/// from `eval::WorkloadGenerator`, drawn with a fixed generator seed: the
/// judged query pool of a world. The pool is part of the dataset; the
/// workload seed only orders it.
Stream QueryPool(const synth::World& world, size_t count);

/// explore's inputs: the large world's query pool, split by a fixed draw
/// into `warm` warm-up queries and the measured rest, each in seeded
/// order. Every seed measures the same queries, and the warm-up never
/// sends a measured query.
void ExploreStreams(const synth::World& world, uint64_t seed, size_t count,
                    size_t warm, Stream* measured, Stream* warmup);

/// `count` distinct 2-4-pattern joins in a fixed family rotation: chains
/// and stars over bound predicates, chains with one wildcard predicate,
/// judged ER joins from the small world's `QueryPool`, and all-wildcard chains
/// `?a ?p1 ?b ; ?b ?p2 ?c ...`. `tag` makes the variable names of
/// all-wildcard chains distinct from those of another stream.
Stream JoinStream(const synth::World& world, uint64_t seed, size_t count,
                  const std::string& tag);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
