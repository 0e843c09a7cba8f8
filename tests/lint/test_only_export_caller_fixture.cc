/**
 * @file
 * Lint fixture for lint.test_only_exports_fixture: stands in for a
 * tests/ object, the only caller of the function the companion
 * test_only_export_fixture.cc exports. Compiled as an object
 * library, never linked.
 */

namespace vaesa::lint_fixture {

int onlyTestsCallThis(int x);

int
callFromATest()
{
    return onlyTestsCallThis(41);
}

} // namespace vaesa::lint_fixture
