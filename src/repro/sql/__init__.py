"""SQL front-end.

The paper's appendix lists the benchmark queries as SQL against the
triple-store schema, and notes that "the SQL code for the
vertically-partitioned implementation is produced by a Perl script" because
SQL cannot iterate over tables in a FROM clause.  This package provides the
same workflow:

* :func:`parse_sql` — lexer + recursive-descent parser for the SQL subset
  the appendix uses (SELECT / FROM with aliases and subqueries / WHERE
  conjunctions / GROUP BY / HAVING count(*) / UNION [ALL]),
* :func:`plan_sql` — lower an AST (or SQL text) to an engine-neutral
  logical plan against a store catalog; triple-schema text runs on every
  scheme, placed on the deployed one first,
* :func:`repro.sql.generator.place` — the one scheme mapping: rewrite a
  triple-schema statement over the triple, vertical or property-table
  scheme's tables, producing the union-heavy statements of Section 4.2,
* :func:`repro.sql.generator.generate_vertical_sql` — the "Perl script":
  the vertical placement rendered back to SQL text,
* :data:`repro.sql.appendix.APPENDIX_SQL` — the paper's appendix queries,
  verbatim modulo constant spelling, conjunct order, the derived-table
  alias and q7's output aliases: the one definition of the benchmark
  queries, which :func:`repro.queries.build_query` plans.
"""

from repro.sql.parser import parse_sql
from repro.sql.planner import plan_sql
from repro.sql.generator import generate_vertical_sql
from repro.sql.appendix import APPENDIX_SQL

__all__ = ["parse_sql", "plan_sql", "generate_vertical_sql", "APPENDIX_SQL"]
