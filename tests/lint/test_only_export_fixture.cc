/**
 * @file
 * Lint fixture for lint.test_only_exports_fixture: stands in for a
 * src/ object exporting a function that only the companion test
 * object (test_only_export_caller_fixture.cc) calls, so the gate
 * (tools/check/test_only_exports.cmake) must flag it. Compiled as an
 * object library, never linked.
 */

namespace vaesa::lint_fixture {

int onlyTestsCallThis(int x);

int
onlyTestsCallThis(int x)
{
    return x + 1;
}

} // namespace vaesa::lint_fixture
