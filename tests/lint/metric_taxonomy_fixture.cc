/**
 * @file
 * Negative lint fixture: a metric registered under a name that the
 * docs/OBSERVABILITY.md taxonomy table does not list must be
 * flagged, so the table stays the one place every emitted metric is
 * documented.
 *
 * Never compiled; only scanned by lint.metric_taxonomy_fixture.
 */

namespace metrics {
int &counter(const char *name);
} // namespace metrics

inline int
undocumentedMetric()
{
    // BAD: the taxonomy has no `fixture.undocumented_total` row.
    const int bad = metrics::counter("fixture.undocumented_total");

    // fine: a documented name.
    return bad + metrics::counter("cache.hit");
}
