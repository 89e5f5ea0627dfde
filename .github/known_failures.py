"""Pass only when a JUnit XML report fails exactly the named tests.

    python .github/known_failures.py REPORT.xml CLASSNAME.NAME ...

Prints each unexpected failure, each named failure that now passes and
each error, and exits 1 when there is any.
"""

import sys
import xml.etree.ElementTree as ET

report, *names = sys.argv[1:]
expected = set(names)
failed, errors = set(), set()
for case in ET.parse(report).iter("testcase"):
    name = f"{case.get('classname')}.{case.get('name')}"
    if case.find("failure") is not None:
        failed.add(name)
    if case.find("error") is not None:
        errors.add(name)
for label, found in (("unexpected failure", failed - expected),
                     ("expected failure now passes", expected - failed),
                     ("error", errors)):
    for name in sorted(found):
        print(f"{label}: {name}")
sys.exit(failed != expected or bool(errors))
