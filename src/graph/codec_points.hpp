/**
 * @file
 * Codec scheduling points for the asynchronous stash pipeline.
 *
 * The schedule builder derives, from a graph and its ScheduleInfo, the
 * two kinds of points the async executor acts on:
 *
 *  - encode-ready points: a stashed output's encode can be submitted to
 *    the codec queue the moment its last forward read retires it;
 *  - decode-prefetch points: for each backward node, the stash slots its
 *    backward reads densely — submitted one backward node *ahead* of the
 *    consumer so the decode overlaps the preceding node's backward
 *    compute, with the main thread blocking on the slot's ticket only if
 *    it arrives early.
 *
 * The points depend on layer modes (Binarize flips change BackwardNeeds),
 * so they are rebuilt alongside ScheduleInfo in Executor::refreshSchedule.
 */

#pragma once

#include <vector>

#include "graph/graph.hpp"

namespace gist {

/** One stash slot a backward node reads densely. */
struct DecodeTarget
{
    NodeId slot = -1;
    /**
     * True when the consumer could read the slot's encoding piece by
     * piece instead (conv or FC backward under elide_decode): the
     * executor skips the decode prefetch for these and joins the encode
     * ticket instead.
     */
    bool chunkable = false;
};

/** Encode-ready / decode-prefetch points, indexed by node id. */
struct CodecPoints
{
    /** True if node id's output encodes right after its forward retire. */
    std::vector<bool> encode_after_fwd;
    /** Stash slots node id's backward pass reads densely. */
    std::vector<std::vector<DecodeTarget>> decode_targets;
    /**
     * Node whose backward runs immediately after node id's (skipping
     * Input nodes); -1 once the backward pass ends. Prefetch distance 1:
     * while node id's backward computes, next_bwd[id]'s decodes run.
     */
    std::vector<NodeId> next_bwd;
};

/** Derive the codec points for @p graph under its current layer modes. */
CodecPoints buildCodecPoints(const Graph &graph, const ScheduleInfo &sched);

} // namespace gist
