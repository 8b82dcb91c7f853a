"""The paper's appendix SQL, verbatim modulo constant spelling, conjunct
order, the derived-table alias and q7's output aliases.

The appendix writes constants in typographic quotes (``‘<type>’``); here
they are ordinary single-quoted SQL strings whose contents are the exact
dictionary keys the data loader uses.  The planner joins FROM items in
conjunct order from the first, so q4 joins ``P`` last and q6 starts from
its derived table ``u``.  These texts are the one definition of the
benchmark queries (:func:`repro.queries.build_query` plans them); the
vertically-partitioned SQL is *generated* from them
(:mod:`repro.sql.generator`).
"""

APPENDIX_SQL = {
    "q1": """
        SELECT A.obj, count(*)
        FROM triples AS A
        WHERE A.prop = '<type>'
        GROUP BY A.obj
    """,
    "q2": """
        SELECT B.prop, count(*)
        FROM triples AS A, triples AS B,
             properties P
        WHERE A.subj = B.subj
          AND A.prop = '<type>'
          AND A.obj = '<Text>'
          AND P.prop = B.prop
        GROUP BY B.prop
    """,
    "q2*": """
        SELECT B.prop, count(*)
        FROM triples AS A, triples AS B
        WHERE A.subj = B.subj
          AND A.prop = '<type>'
          AND A.obj = '<Text>'
        GROUP BY B.prop
    """,
    "q3": """
        SELECT B.prop, B.obj, count(*)
        FROM triples AS A, triples AS B,
             properties P
        WHERE A.subj = B.subj
          AND A.prop = '<type>'
          AND A.obj = '<Text>'
          AND P.prop = B.prop
        GROUP BY B.prop, B.obj
        HAVING count(*) > 1
    """,
    "q3*": """
        SELECT B.prop, B.obj, count(*)
        FROM triples AS A, triples AS B
        WHERE A.subj = B.subj
          AND A.prop = '<type>'
          AND A.obj = '<Text>'
        GROUP BY B.prop, B.obj
        HAVING count(*) > 1
    """,
    "q4": """
        SELECT B.prop, B.obj, count(*)
        FROM triples AS A, triples AS B, triples AS C,
             properties P
        WHERE A.subj = B.subj
          AND A.prop = '<type>'
          AND A.obj = '<Text>'
          AND C.subj = B.subj
          AND C.prop = '<language>'
          AND C.obj = '<language/iso639-2b/fre>'
          AND P.prop = B.prop
        GROUP BY B.prop, B.obj
        HAVING count(*) > 1
    """,
    "q4*": """
        SELECT B.prop, B.obj, count(*)
        FROM triples AS A, triples AS B, triples AS C
        WHERE A.subj = B.subj
          AND A.prop = '<type>'
          AND A.obj = '<Text>'
          AND C.subj = B.subj
          AND C.prop = '<language>'
          AND C.obj = '<language/iso639-2b/fre>'
        GROUP BY B.prop, B.obj
        HAVING count(*) > 1
    """,
    "q5": """
        SELECT B.subj, C.obj
        FROM triples AS A, triples AS B, triples AS C
        WHERE A.subj = B.subj
          AND A.prop = '<origin>'
          AND A.obj = '<info:marcorg/DLC>'
          AND B.prop = '<records>'
          AND B.obj = C.subj
          AND C.prop = '<type>'
          AND C.obj != '<Text>'
    """,
    "q6": """
        SELECT A.prop, count(*)
        FROM (
               (SELECT B.subj
                FROM triples AS B
                WHERE B.prop = '<type>'
                  AND B.obj = '<Text>')
               UNION
               (SELECT C.subj
                FROM triples AS C, triples AS D
                WHERE C.prop = '<records>'
                  AND C.obj = D.subj
                  AND D.prop = '<type>'
                  AND D.obj = '<Text>')
             ) AS u,
             triples AS A,
             properties P
        WHERE A.subj = u.subj
          AND P.prop = A.prop
        GROUP BY A.prop
    """,
    "q6*": """
        SELECT A.prop, count(*)
        FROM (
               (SELECT B.subj
                FROM triples AS B
                WHERE B.prop = '<type>'
                  AND B.obj = '<Text>')
               UNION
               (SELECT C.subj
                FROM triples AS C, triples AS D
                WHERE C.prop = '<records>'
                  AND C.obj = D.subj
                  AND D.prop = '<type>'
                  AND D.obj = '<Text>')
             ) AS u,
             triples AS A
        WHERE A.subj = u.subj
        GROUP BY A.prop
    """,
    "q7": """
        SELECT A.subj, B.obj AS obj_encoding, C.obj AS obj_type
        FROM triples AS A, triples AS B, triples AS C
        WHERE A.prop = '<Point>'
          AND A.obj = '"end"'
          AND A.subj = B.subj
          AND B.prop = '<Encoding>'
          AND A.subj = C.subj
          AND C.prop = '<type>'
    """,
    "q8": """
        SELECT B.subj
        FROM triples AS A, triples AS B
        WHERE A.subj = '<conferences>'
          AND B.subj != '<conferences>'
          AND A.obj = B.obj
    """,
}
