// Package workload provides the three programs of the paper's evaluation
// (Section 4.1), written in MigC, plus the synthetic programs used by the
// overhead experiments of Section 4.3:
//
//   - test_pointer: a synthesis program with a tree structure, a pointer
//     to integer, a pointer to an array of 10 integers, a pointer to an
//     array of 10 pointers to integers, and a tree-like (shared/DAG) data
//     structure;
//   - linpack: the netlib linpack benchmark core — dgefa/dgesl with
//     partial pivoting solving Ax = b — computation-intensive, with large
//     matrix blocks and no dynamic allocation;
//   - bitonic: the tree-based sorting program — a binary tree stores
//     randomly generated integers and is traversed in order, exercising
//     extensive memory allocation and recursion.
//
// Beyond the paper's programs, JacobiSource (an iterative stencil solve
// that migrates at sweep boundaries) and RandomProgram (seeded program
// generation for differential testing) extend the workload set.
//
// Each source embeds one explicit migration point (migrate_here) placed
// where the paper's experiments take their snapshot: after the program's
// data structures are fully built and live.
//
// MigC has no parenthesized declarators, so the paper's "pointer to array
// of 10 ints" appears as a pointer to a struct wrapping the array — the
// same memory block shape, reached through one pointer.
package workload

import "fmt"

// TestPointerSource returns the test_pointer program. treeDepth controls
// the size of the binary tree (2^depth - 1 nodes).
func TestPointerSource(treeDepth int) string {
	return fmt.Sprintf(`
/* test_pointer: synthesis program exercising every pointer shape of the
   paper's heterogeneity experiment. Returns 0 on success; each failed
   verification returns a distinct code. */

struct tree {
	int key;
	struct tree *left;
	struct tree *right;
};

struct intbox {
	int arr[10];
};

struct ptrbox {
	int *arr[10];
};

struct dagnode {
	double weight;
	struct dagnode *kids[3];
};

int target;
int pool[10];
struct tree *troot;
struct intbox *pbox;
struct ptrbox *ppbox;
struct dagnode *droot;
struct dagnode *shared;
int *pint;

struct tree *buildtree(int depth, int base) {
	struct tree *t;
	if (depth == 0) return 0;
	t = (struct tree *) malloc(sizeof(struct tree));
	t->key = base;
	t->left = buildtree(depth - 1, base * 2);
	t->right = buildtree(depth - 1, base * 2 + 1);
	return t;
}

int sumtree(struct tree *t) {
	if (t == 0) return 0;
	return t->key + sumtree(t->left) + sumtree(t->right);
}

int main() {
	int i;
	int checksum, expect;

	/* pointer to integer */
	target = 7777;
	pint = &target;

	/* pointer to (an array of 10 integers) */
	pbox = (struct intbox *) malloc(sizeof(struct intbox));
	for (i = 0; i < 10; i++) pbox->arr[i] = i * i;

	/* pointer to (an array of 10 pointers to integers) */
	for (i = 0; i < 10; i++) pool[i] = 100 + i;
	ppbox = (struct ptrbox *) malloc(sizeof(struct ptrbox));
	for (i = 0; i < 10; i++) ppbox->arr[i] = &pool[9 - i];

	/* tree structure */
	troot = buildtree(%d, 1);
	expect = sumtree(troot);

	/* tree-like structure: three parents share one child, plus a cycle */
	shared = (struct dagnode *) malloc(sizeof(struct dagnode));
	shared->weight = 2.5;
	shared->kids[0] = 0; shared->kids[1] = 0; shared->kids[2] = 0;
	droot = (struct dagnode *) malloc(sizeof(struct dagnode));
	droot->weight = 1.0;
	for (i = 0; i < 3; i++) {
		struct dagnode *k;
		k = (struct dagnode *) malloc(sizeof(struct dagnode));
		k->weight = 10.0 + i;
		k->kids[0] = shared;   /* shared child */
		k->kids[1] = droot;    /* cycle back to the root */
		k->kids[2] = 0;
		droot->kids[i] = k;
	}

	migrate_here();

	/* ---- verification after (potential) migration ---- */
	if (*pint != 7777) return 1;
	target = 8888;
	if (*pint != 8888) return 2;      /* aliasing preserved */

	for (i = 0; i < 10; i++) {
		if (pbox->arr[i] != i * i) return 3;
	}
	for (i = 0; i < 10; i++) {
		if (*(ppbox->arr[i]) != 100 + 9 - i) return 4;
	}
	/* write through the restored pointer array, observe in pool */
	*(ppbox->arr[0]) = -5;
	if (pool[9] != -5) return 5;

	checksum = sumtree(troot);
	if (checksum != expect) return 6;

	if (droot->kids[0]->kids[0] != droot->kids[1]->kids[0]) return 7;
	if (droot->kids[1]->kids[0] != droot->kids[2]->kids[0]) return 8;
	if (droot->kids[0]->kids[1] != droot) return 9;
	shared->weight = 99.5;
	if (droot->kids[2]->kids[0]->weight != 99.5) return 10;

	return 0;
}
`, treeDepth)
}

// LinpackSource returns the linpack benchmark for an n x n system. When
// solve is false the program stops right after the migration point, which
// is what the collection/restoration experiments need (the paper measures
// state transfer, not factorization). When solve is true the system is
// factored and solved after migration and the residual against the known
// solution (all ones) is checked.
func LinpackSource(n int, solve bool) string {
	solveFlag := 0
	if solve {
		solveFlag = 1
	}
	return fmt.Sprintf(`
/* linpack: solve Ax = b with LU factorization and partial pivoting.
   Matrices are local variables of main, as in the paper's runs; the
   migration point sits right after matrix generation so the full data
   set is live at collection time. */

int nval;

int idamax(int n, double *dx, int base) {
	double dmax;
	int i, itemp;
	itemp = 0;
	dmax = fabs(dx[base]);
	for (i = 1; i < n; i++) {
		if (fabs(dx[base + i]) > dmax) {
			itemp = i;
			dmax = fabs(dx[base + i]);
		}
	}
	return itemp;
}

void dscal(int n, double da, double *dx, int base) {
	int i;
	for (i = 0; i < n; i++) dx[base + i] = da * dx[base + i];
}

void daxpy(int n, double da, double *dx, int xbase, double *dy, int ybase) {
	int i;
	if (da == 0.0) return;
	for (i = 0; i < n; i++) {
		dy[ybase + i] = dy[ybase + i] + da * dx[xbase + i];
	}
}

void matgen(double *a, int lda, int n, double *b) {
	long init;
	int i, j;
	init = 1325;
	for (j = 0; j < n; j++) {
		for (i = 0; i < n; i++) {
			init = 3125 * init %% 65536;
			a[lda * j + i] = (init - 32768.0) / 16384.0;
		}
	}
	/* b = A * ones, so the solution is all ones */
	for (i = 0; i < n; i++) b[i] = 0.0;
	for (j = 0; j < n; j++) {
		for (i = 0; i < n; i++) {
			b[i] = b[i] + a[lda * j + i];
		}
	}
}

void dgefa(double *a, int lda, int n, int *ipvt, int *info) {
	double t;
	int j, k, kp1, l, nm1;
	*info = 0;
	nm1 = n - 1;
	for (k = 0; k < nm1; k++) {
		kp1 = k + 1;
		l = idamax(n - k, a, lda * k + k) + k;
		ipvt[k] = l;
		if (a[lda * k + l] == 0.0) {
			*info = k + 1;
			return;
		}
		if (l != k) {
			t = a[lda * k + l];
			a[lda * k + l] = a[lda * k + k];
			a[lda * k + k] = t;
		}
		t = -1.0 / a[lda * k + k];
		dscal(n - kp1, t, a, lda * k + kp1);
		for (j = kp1; j < n; j++) {
			t = a[lda * j + l];
			if (l != k) {
				a[lda * j + l] = a[lda * j + k];
				a[lda * j + k] = t;
			}
			daxpy(n - kp1, t, a, lda * k + kp1, a, lda * j + kp1);
		}
	}
	ipvt[n - 1] = n - 1;
	if (a[lda * (n - 1) + n - 1] == 0.0) *info = n;
}

void dgesl(double *a, int lda, int n, int *ipvt, double *b) {
	double t;
	int k, kb, l, nm1;
	nm1 = n - 1;
	for (k = 0; k < nm1; k++) {
		l = ipvt[k];
		t = b[l];
		if (l != k) {
			b[l] = b[k];
			b[k] = t;
		}
		daxpy(n - k - 1, t, a, lda * k + k + 1, b, k + 1);
	}
	for (kb = 0; kb < n; kb++) {
		k = n - 1 - kb;
		b[k] = b[k] / a[lda * k + k];
		t = -b[k];
		daxpy(k, t, a, lda * k, b, 0);
	}
}

int main() {
	double a[%d];
	double b[%d];
	int ipvt[%d];
	int info, i, solve;
	double err, diff;

	nval = %d;
	solve = %d;
	matgen(a, nval, nval, b);

	migrate_here();

	if (!solve) return 0;

	dgefa(a, nval, nval, ipvt, &info);
	if (info != 0) return 2;
	dgesl(a, nval, nval, ipvt, b);

	/* the exact solution is all ones */
	err = 0.0;
	for (i = 0; i < nval; i++) {
		diff = fabs(b[i] - 1.0);
		if (diff > err) err = diff;
	}
	if (err > 0.000001) return 3;
	return 0;
}
`, n*n, n, n, n, solveFlag)
}

// BitonicSource returns the tree-based sorting program for n randomly
// generated integers. The binary tree is built with recursive insertion
// (extensive allocation and recursion, as the paper notes); the migration
// point follows the build, so the whole tree is live; after migration the
// tree is traversed in order and checked to be sorted.
func BitonicSource(n int, seed int) string {
	return fmt.Sprintf(`
/* bitonic: binary tree sort of %d pseudo-random integers. */

struct tnode {
	int value;
	struct tnode *left;
	struct tnode *right;
};

struct tnode *root;
int count;
int prev;
int ordered;

struct tnode *insert(struct tnode *t, int v) {
	if (t == 0) {
		t = (struct tnode *) malloc(sizeof(struct tnode));
		t->value = v;
		t->left = 0;
		t->right = 0;
		return t;
	}
	if (v < t->value) {
		t->left = insert(t->left, v);
	} else {
		t->right = insert(t->right, v);
	}
	return t;
}

void visit(struct tnode *t) {
	if (t == 0) return;
	visit(t->left);
	if (count > 0 && t->value < prev) ordered = 0;
	prev = t->value;
	count++;
	visit(t->right);
}

int main() {
	int i, n;
	n = %d;
	srand(%d);
	root = 0;
	for (i = 0; i < n; i++) {
		root = insert(root, rand());
	}

	migrate_here();

	count = 0;
	ordered = 1;
	prev = 0;
	visit(root);
	if (count != n) return 1;
	if (!ordered) return 2;
	return 0;
}
`, n, n, seed)
}

// KernelOverheadSource is the Section 4.3 overhead probe: a tiny kernel
// function performing few operations but invoked many times. Poll-point
// placement (inside the kernel loop vs only in main) is chosen by the
// PollPolicy the caller compiles with.
func KernelOverheadSource(outer, inner int) string {
	return fmt.Sprintf(`
/* overhead probe: small kernel called %d times, %d operations each. */

double acc;

void kernel(int n) {
	int i;
	for (i = 0; i < n; i++) {
		acc = acc + 1.0;
	}
}

int main() {
	int i, outer;
	outer = %d;
	acc = 0.0;
	for (i = 0; i < outer; i++) {
		kernel(%d);
	}
	return (int)(acc / 1000.0);
}
`, outer, inner, outer, inner)
}

// AllocOverheadSource is the second Section 4.3 probe: repeated
// allocation of many small memory blocks, growing the MSRLT. When pooled
// is true the program uses the paper's suggested "smart memory allocation
// policy": one arena block instead of many small ones.
func AllocOverheadSource(blocks int, pooled bool) string {
	if pooled {
		return fmt.Sprintf(`
/* allocation probe, pooled variant: one arena instead of %d blocks. */

struct item { int v; int pad; };

int main() {
	struct item *arena;
	int i, n;
	long sum;
	n = %d;
	arena = (struct item *) malloc(n * sizeof(struct item));
	for (i = 0; i < n; i++) {
		arena[i].v = i;
	}
	sum = 0;
	for (i = 0; i < n; i++) {
		sum += arena[i].v;
	}
	free(arena);
	return (int)(sum %% 1000);
}
`, blocks, blocks)
	}
	return fmt.Sprintf(`
/* allocation probe: %d individually allocated small blocks. */

struct item { int v; int pad; };

struct item *slots[%d];

int main() {
	int i, n;
	long sum;
	n = %d;
	for (i = 0; i < n; i++) {
		slots[i] = (struct item *) malloc(sizeof(struct item));
		slots[i]->v = i;
	}
	sum = 0;
	for (i = 0; i < n; i++) {
		sum += slots[i]->v;
	}
	for (i = 0; i < n; i++) {
		free(slots[i]);
	}
	return (int)(sum %% 1000);
}
`, blocks, blocks, blocks)
}

// JacobiSource returns an iterative 2D Jacobi heat-diffusion solver on an
// n x n grid, the classic load-balancing candidate the paper's
// introduction motivates: a long-running iterative computation whose state
// (two grids and an iteration counter) migrates mid-convergence at any
// sweep boundary. The program runs sweeps sweeps and returns 0 if the
// final checksum matches a machine-independent expectation computed by the
// program itself (stored before the loop and compared via a second,
// identical computation after it).
func JacobiSource(n, sweeps int) string {
	return fmt.Sprintf(`
/* jacobi: %d sweeps of heat diffusion on a %dx%d grid. */

int nsz;

void sweep(double *src, double *dst, int n) {
	int i, j;
	for (i = 1; i < n - 1; i++) {
		for (j = 1; j < n - 1; j++) {
			dst[i * n + j] = 0.25 * (src[(i - 1) * n + j] + src[(i + 1) * n + j]
				+ src[i * n + j - 1] + src[i * n + j + 1]);
		}
	}
}

void initgrid(double *g, int n) {
	int i, j;
	for (i = 0; i < n; i++) {
		for (j = 0; j < n; j++) {
			g[i * n + j] = 0.0;
		}
	}
	/* hot top edge, cold bottom edge */
	for (j = 0; j < n; j++) {
		g[j] = 100.0;
		g[(n - 1) * n + j] = -100.0;
	}
}

double checksum(double *g, int n) {
	double s;
	int i, j;
	s = 0.0;
	for (i = 0; i < n; i++) {
		for (j = 0; j < n; j++) {
			s += g[i * n + j] * (1 + i %% 7) * (1 + j %% 5);
		}
	}
	return s;
}

int main() {
	double a[%d];
	double b[%d];
	int iter, sweeps;
	double sum;

	nsz = %d;
	sweeps = %d;
	initgrid(a, nsz);
	initgrid(b, nsz);

	for (iter = 0; iter < sweeps; iter++) {
		migrate_here();
		if (iter %% 2 == 0) {
			sweep(a, b, nsz);
		} else {
			sweep(b, a, nsz);
		}
	}

	sum = checksum(a, nsz) + checksum(b, nsz);
	/* The caller compares the exit code against an unmigrated run; fold
	   the checksum into a bounded integer deterministically. */
	if (sum < 0) sum = -sum;
	while (sum >= 100000.0) sum = sum / 10.0;
	return (int)sum %% 251;
}
`, sweeps, n, n, n*n, n*n, n, sweeps)
}

// ShardedListsSource returns a program building nlists independent linked
// lists of nnodes payload-heavy nodes each. No pointer ever crosses from
// one list into another, so the heap partitions into exactly nlists
// connected components — the workload behind the parallel sectioned
// collection experiment. The lists hang off a global pointer array (not a
// heap-allocated root block, which would fuse every list into one
// component). A checksum computed before the migration point is verified
// after it; exit 0 means every payload survived bit-exactly.
func ShardedListsSource(nlists, nnodes int) string {
	return fmt.Sprintf(`
/* sharded_lists: %d independent lists x %d nodes, 16 doubles per node. */

struct node {
	double pay[16];
	struct node *next;
};

struct node *heads[%d];
double checksum;

int main() {
	int i, j, k;
	struct node *c;
	double sum;

	for (k = 0; k < %d; k++) {
		heads[k] = 0;
		for (i = 0; i < %d; i++) {
			c = (struct node *) malloc(sizeof(struct node));
			for (j = 0; j < 16; j++) {
				c->pay[j] = k * 1000.0 + i + j * 0.5;
			}
			c->next = heads[k];
			heads[k] = c;
		}
	}
	sum = 0.0;
	for (k = 0; k < %d; k++) {
		c = heads[k];
		while (c) {
			for (j = 0; j < 16; j++) sum += c->pay[j];
			c = c->next;
		}
	}
	checksum = sum;

	migrate_here();

	sum = 0.0;
	for (k = 0; k < %d; k++) {
		c = heads[k];
		while (c) {
			for (j = 0; j < 16; j++) sum += c->pay[j];
			c = c->next;
		}
	}
	if (sum != checksum) return 1;
	return 0;
}
`, nlists, nnodes, nlists, nlists, nnodes, nlists, nlists)
}

// MutatingShardsSource builds the warm-migration workload — `bench`'s
// warm_mutated and the live and chaos tests of internal/session and
// internal/vm: nlists independent lists of nnodes nodes (16 doubles
// each), then rounds mutation rounds. Round r adds 1.0 to every payload
// double of list r % nlists and reaches a migration point — so between
// two consecutive polls exactly one heap component changes, and a
// checkpoint taken every K-th poll sees roughly K of nlists components
// dirty. The final checksum verifies every mutation survived every
// checkpoint/restore: sum == checksum + rounds * 16 * nnodes.
func MutatingShardsSource(nlists, nnodes, rounds int) string {
	return fmt.Sprintf(`
/* mutating_shards: %d lists x %d nodes; %d rounds of mutate-one-list + poll. */

struct node {
	double pay[16];
	struct node *next;
};

struct node *heads[%d];
double checksum;

int main() {
	int i, j, k, r;
	struct node *c;
	double sum;

	for (k = 0; k < %d; k++) {
		heads[k] = 0;
		for (i = 0; i < %d; i++) {
			c = (struct node *) malloc(sizeof(struct node));
			for (j = 0; j < 16; j++) {
				c->pay[j] = k * 1000.0 + i + j * 0.5;
			}
			c->next = heads[k];
			heads[k] = c;
		}
	}
	sum = 0.0;
	for (k = 0; k < %d; k++) {
		c = heads[k];
		while (c) {
			for (j = 0; j < 16; j++) sum += c->pay[j];
			c = c->next;
		}
	}
	checksum = sum;

	for (r = 0; r < %d; r++) {
		k = r %% %d;
		c = heads[k];
		while (c) {
			for (j = 0; j < 16; j++) c->pay[j] = c->pay[j] + 1.0;
			c = c->next;
		}
		migrate_here();
	}

	sum = 0.0;
	for (k = 0; k < %d; k++) {
		c = heads[k];
		while (c) {
			for (j = 0; j < 16; j++) sum += c->pay[j];
			c = c->next;
		}
	}
	if (sum != checksum + %d * 16.0 * %d) return 1;
	return 0;
}
`, nlists, nnodes, rounds, nlists, nlists, nnodes, nlists, rounds, nlists, nlists, rounds, nnodes)
}

// WriteRateSource builds the live-migration workload — `bench`'s
// live_writer and session.TestLiveWriteRateBytes: nlists independent
// lists of nnodes nodes (16 doubles each), then rounds mutation rounds
// with a tunable write rate — round r adds 1.0 to every payload double of
// k of the nlists lists (lists (r*k+m) % nlists for m in 0..k-1) before
// reaching a migration point. Between two consecutive polls a k/nlists
// fraction of the heap is dirty, which is exactly the knob the pre-copy
// convergence sweep turns. The final checksum verifies every mutation
// survived every migration: sum == checksum + rounds * k * 16 * nnodes.
func WriteRateSource(nlists, nnodes, k, rounds int) string {
	return fmt.Sprintf(`
/* write_rate: %d lists x %d nodes; %d rounds mutating %d lists each + poll. */

struct node {
	double pay[16];
	struct node *next;
};

struct node *heads[%d];
double checksum;

int main() {
	int i, j, k, m, r;
	struct node *c;
	double sum;

	for (k = 0; k < %d; k++) {
		heads[k] = 0;
		for (i = 0; i < %d; i++) {
			c = (struct node *) malloc(sizeof(struct node));
			for (j = 0; j < 16; j++) {
				c->pay[j] = k * 1000.0 + i + j * 0.5;
			}
			c->next = heads[k];
			heads[k] = c;
		}
	}
	sum = 0.0;
	for (k = 0; k < %d; k++) {
		c = heads[k];
		while (c) {
			for (j = 0; j < 16; j++) sum += c->pay[j];
			c = c->next;
		}
	}
	checksum = sum;

	for (r = 0; r < %d; r++) {
		for (m = 0; m < %d; m++) {
			k = (r * %d + m) %% %d;
			c = heads[k];
			while (c) {
				for (j = 0; j < 16; j++) c->pay[j] = c->pay[j] + 1.0;
				c = c->next;
			}
		}
		migrate_here();
	}

	sum = 0.0;
	for (k = 0; k < %d; k++) {
		c = heads[k];
		while (c) {
			for (j = 0; j < 16; j++) sum += c->pay[j];
			c = c->next;
		}
	}
	if (sum != checksum + %d * %d * 16.0 * %d) return 1;
	return 0;
}
`, nlists, nnodes, rounds, k, nlists, nlists, nnodes, nlists, rounds, k, k, nlists, nlists, rounds, k, nnodes)
}
