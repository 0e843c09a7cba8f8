/**
 * @file
 * Negative lint fixture: a metric registered under a name that the
 * docs/OBSERVABILITY.md taxonomy table does not list must be
 * flagged, so the table stays the one place every emitted metric is
 * documented. Likewise a span without a row in the span table.
 *
 * Never compiled; only scanned by lint.metric_taxonomy_fixture and
 * lint.span_taxonomy_fixture.
 */

namespace metrics {
int &counter(const char *name);
} // namespace metrics

namespace trace {
struct Span
{
    explicit Span(const char *name);
};
} // namespace trace

inline int
undocumentedMetric()
{
    // BAD: the taxonomy has no `fixture.undocumented_total` row.
    const int bad = metrics::counter("fixture.undocumented_total");

    // fine: a documented name.
    return bad + metrics::counter("cache.hit");
}

inline void
undocumentedSpan()
{
    // BAD: the span table has no `fixture.undocumented_span` row.
    const trace::Span bad("fixture.undocumented_span");

    // fine: a documented span.
    const trace::Span good("bo.iteration");
}
