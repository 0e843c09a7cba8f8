/**
 * @file
 * Negative lint fixture: any direct evaluateConfigBatch() call in
 * the serve tree must be flagged -- serve handlers score through
 * CachingEvaluator::evaluateWorkload (one cache probe per request)
 * and batch through evaluateCachedBatch (the cached engine), never
 * through the uncached entry point. Unlike the socket ban, MEMBER
 * calls are exactly the violation here, so the fixture uses one.
 *
 * Never compiled; only scanned by lint.batch_entry_fixture.
 */

struct FakeEvaluator
{
    int evaluateConfigBatch(const int *, int) { return 0; }
};

inline int
uncoalescedHandler()
{
    FakeEvaluator evaluator;
    const int configs[2] = {0, 1};

    // BAD: a serve-tree caller dispatching the batch entry point
    // itself instead of going through
    // CachingEvaluator::evaluateWorkload.
    const int direct = evaluator.evaluateConfigBatch(configs, 2);

    // fine: naming the entry point without calling it (docs, member
    // pointers) is not a dispatch.
    int (FakeEvaluator::*entry)(const int *, int) =
        &FakeEvaluator::evaluateConfigBatch;
    (void)entry;

    return direct;
}
